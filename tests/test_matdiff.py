"""Matrix differential algebras (M_m(E), d_P) and the corner-matrix constants."""

import pytest

from diffsym.matdiff import (
    DiffMatrix,
    apply_dP,
    no_cyclic_subfield_witness,
    prop44_constants,
    prop44_matrix,
    verify_gauge,
)
from diffsym.scalars import CycloField, RatFuncField


@pytest.fixture
def k():
    return RatFuncField(CycloField(2), "t")


def test_matrix_arithmetic(k):
    t = k.gen()
    a = DiffMatrix(k, [[t, k.one()], [k.zero(), t]])
    b = DiffMatrix(k, [[k.one(), k.zero()], [t, k.one()]])
    assert (a * b) + (a * b.scale(-1)) == DiffMatrix.zero(k, 2)
    assert a * DiffMatrix.identity(k, 2) == a
    assert (a**3) == a * a * a
    assert a.det() == t * t
    assert a.trace() == t + t


def test_matrix_negative_power_raises(k):
    # 1x1 and zero, so a power loop that never ends would allocate nothing
    with pytest.raises(ValueError):
        DiffMatrix.zero(k, 1) ** -1


def test_derive_is_leibniz_on_products(k):
    t = k.gen()
    a = DiffMatrix(k, [[t, t * t], [k.one(), t]])
    b = DiffMatrix(k, [[t + 1, k.zero()], [t, k.one()]])
    assert (a * b).derive() == a.derive() * b + a * b.derive()


def test_apply_dP_is_a_derivation(k):
    t = k.gen()
    p = DiffMatrix(k, [[k.zero(), t], [k.one(), k.zero()]])
    a = DiffMatrix(k, [[t, k.one()], [t * t, k.zero()]])
    b = DiffMatrix(k, [[k.one(), t], [k.zero(), t]])
    assert apply_dP(p, a * b) == a * apply_dP(p, b) + apply_dP(p, a) * b


def test_verify_gauge_pass_and_fail(k):
    t = k.gen()
    # F = diag(t, 1) solves delta(F) = PF for P = diag(1/t, 0)
    p = DiffMatrix.diagonal(k, [k.one() / t, k.zero()])
    f = DiffMatrix.diagonal(k, [t, k.one()])
    v = verify_gauge(p, f)
    assert v.ok and v.det_nonzero and v.failing_entry is None
    bad = verify_gauge(p, DiffMatrix.diagonal(k, [t, t]))
    assert not bad.ok
    assert bad.failing_entry == (1, 1)
    singular = verify_gauge(p, DiffMatrix(k, [[t, t], [t, t]]))
    assert not singular.det_nonzero and not singular.ok


def test_prop44_requires_distinct_constants(k):
    with pytest.raises(ValueError):
        prop44_matrix(k, [1, 1], k.gen())


@pytest.mark.parametrize("m", [2, 3, 4])
def test_corner_pole_dimension(m):
    k = RatFuncField(CycloField(m), "t")
    p = prop44_matrix(k, list(range(m)), k.one() / k.gen())
    basis = prop44_constants(p)
    assert len(basis) == m - 1
    for x in basis:
        assert apply_dP(p, x).is_zero()


@pytest.mark.parametrize("m", [2, 3])
def test_solvable_corner_dimension(m):
    # f = t admits a rational corner solution, so the dimension is m
    k = RatFuncField(CycloField(m), "t")
    p = prop44_matrix(k, list(range(m)), k.gen())
    basis = prop44_constants(p)
    assert len(basis) == m


def test_refutation_chain(k):
    t = k.gen()
    p = prop44_matrix(k, [0, 1], k.one() / t)
    nu = t
    # stable-looking candidate with X^2 != nu I
    x = DiffMatrix(k, [[t, k.zero()], [k.zero(), t]])
    rep = no_cyclic_subfield_witness(p, x, nu)
    assert rep.applies and rep.refuted
    assert rep.to_json() == {
        "applies": True, "refuted": True, "reason": "candidate rejected: X^m != nu*I", "details": [],
    }
    # nu an m-th power up to constant: hypothesis fails
    rep = no_cyclic_subfield_witness(p, x, t * t * 4)
    assert not rep.applies
    # corner f = 0: outside the family
    p0 = DiffMatrix.diagonal(k, [k.zero(), k.one()])
    rep = no_cyclic_subfield_witness(p0, x, nu)
    assert not rep.applies


def test_refutation_rejects_unstable_root(k):
    t = k.gen()
    p = prop44_matrix(k, [0, 1], k.one() / t)
    # X with X^2 = t I but d_P(X) != (delta(t)/2t) X
    x = DiffMatrix(k, [[k.zero(), t], [k.one(), k.zero()]])
    rep = no_cyclic_subfield_witness(p, x, t)
    assert rep.applies and rep.refuted
    assert "derivation" in rep.reason or rep.details
