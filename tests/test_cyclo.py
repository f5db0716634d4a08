"""Cyclotomic field Q(w): construction, primitivity, field axioms."""

import pytest

from diffsym.scalars import CycloField, cyclotomic_polynomial


@pytest.mark.parametrize("m,deg", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 4), (6, 2), (7, 6), (12, 4)])
def test_phi_degree_is_euler_totient(m, deg):
    assert cyclotomic_polynomial(m).degree == deg


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7])
def test_omega_is_primitive(m):
    f = CycloField(m)
    w = f.omega()
    assert w**m == f.one()
    for d in range(1, m):
        assert not w**d == f.one()


@pytest.mark.parametrize("m", [3, 4, 5, 7])
def test_omega_power_sum_vanishes(m):
    f = CycloField(m)
    w = f.omega()
    total = f.zero()
    for i in range(m):
        total = total + w**i
    assert total.is_zero()


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_inverse(m):
    f = CycloField(m)
    w = f.omega()
    x = w + f.from_rational(2)
    assert x * x.inv() == f.one()
    assert (f.one() / x) * x == f.one()
    with pytest.raises(ZeroDivisionError):
        f.zero().inv()


def test_rational_detection():
    f = CycloField(4)
    w = f.omega()
    assert (w * w).is_rational()          # w^2 = -1 for m = 4
    assert (w * w).rational_value() == -1
    assert not w.is_rational()


def test_coerce_cross_conductor_rationals():
    a = CycloField(3).from_rational(5)
    b = CycloField(4).coerce(a)
    assert b.rational_value() == 5
    with pytest.raises(TypeError):
        CycloField(4).coerce(CycloField(3).omega())


def test_derive_is_zero():
    f = CycloField(3)
    assert f.omega().derive().is_zero()


def test_hash_agrees_with_equality_across_conductors():
    from fractions import Fraction

    a, b = CycloField(3).one(), CycloField(4).one()
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    half = CycloField(5).from_rational(Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert hash(CycloField(3).omega()) != hash(CycloField(3).one())
