"""Rational function field Q(w)(t): canonical form and the d/dt derivation."""

import pytest

from diffsym.scalars import CycloField, RatFuncField


@pytest.fixture
def k():
    return RatFuncField(CycloField(3), "t")


def _random_elem(k, rng, deg=3):
    t = k.gen()
    num = k.zero()
    den = k.zero()
    while den.is_zero():
        num = sum((t**i * rng.randint(-4, 4) for i in range(deg)), k.zero())
        den = sum((t**i * rng.randint(-4, 4) for i in range(deg)), k.zero())
    return num / den


def test_canonical_form(k):
    t = k.gen()
    f = (t * t - k.one()) / ((t + k.one()) * 2)
    # common factor t+1 cancels, denominator becomes monic with content in num
    assert f.num.degree == 1
    assert f.den.degree == 0
    assert f == (t - k.one()) / 2


def test_field_axioms_random(k, rng):
    for _ in range(25):
        a, b, c = (_random_elem(k, rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        if not a.is_zero():
            assert a * a.inv() == k.one()


def test_derive_leibniz_random(k, rng):
    for _ in range(25):
        a, b = _random_elem(k, rng), _random_elem(k, rng)
        assert (a * b).derive() == a.derive() * b + a * b.derive()
        assert (a + b).derive() == a.derive() + b.derive()


def test_derive_quotient(k):
    t = k.gen()
    f = k.one() / t
    assert f.derive() == -(k.one() / (t * t))
    assert t.derive() == k.one()


def test_degree_function(k):
    t = k.gen()
    assert (t * t / (t + 1)).degree() == 1
    assert (k.one() / t).degree() == -1
    assert k.zero().degree() is None


def test_zero_derivation_variant():
    k0 = RatFuncField(CycloField(3), "t", "zero")
    assert k0.is_zero_derivation
    assert k0.gen().derive().is_zero()


def test_coerce_keeps_own_elements_and_rejects_other_derivation(k):
    t = k.gen()
    assert k.coerce(t) is t
    assert RatFuncField(CycloField(3), "t").coerce(t) is t
    k0 = RatFuncField(CycloField(3), "t", "zero")
    with pytest.raises(TypeError):
        k.coerce(k0.gen())
    with pytest.raises(TypeError):
        k0.coerce(t)


def test_constant_value(k):
    w = k.omega()
    assert w.is_constant()
    assert w.constant_value() == k.cyclo.omega()
    assert not k.gen().is_constant()
