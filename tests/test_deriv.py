"""Derivation characterization, decomposition, and constants."""

import pytest

import diffsym.deriv as deriv_module
from diffsym import SymbolAlgebra, decompose, inner_derivation, standard_derivation
from diffsym.deriv import (
    Derivation,
    DerivationVerdict,
    constants_inner,
    constants_standard,
    subfield_stable,
    validate,
)
from diffsym.linalg import solve_affine
from diffsym.scalars import CycloField, KummerField, RatFuncField
from diffsym.symalg import SymbolElem
from generators import random_element, random_trace_zero, random_valid_derivation, sharing_radicands
from oracles import dividing_decompose, minor_identity_holds, quotient_constants_standard, two_product_apply


def make_algebra(m, derivation="dt", alpha=None, beta=None):
    k = RatFuncField(CycloField(m), "t", derivation)
    t = k.gen()
    return SymbolAlgebra(k, alpha or t, beta or (t + k.one()), m)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_standard_derivation_validates(m):
    alg = make_algebra(m)
    ds = standard_derivation(alg)
    v = validate(alg, ds.du, ds.dv)
    assert v.ok and not v.failing
    assert minor_identity_holds(alg, ds.du, ds.dv)


@pytest.mark.parametrize("m", [2, 3])
def test_leibniz_random(m, rng):
    alg = make_algebra(m)
    for _ in range(5):
        d = random_valid_derivation(alg, rng)
        for _ in range(10):
            a, b = random_element(alg, rng), random_element(alg, rng)
            assert d.apply(a * b) == a * d.apply(b) + d.apply(a) * b


def test_perturbations_tagged(rng):
    alg = make_algebra(3)
    d = random_valid_derivation(alg, rng)
    one = alg.field.one()

    def bump(elem, i, j):
        g = [list(r) for r in elem.grid]
        g[i][j] = g[i][j] + one
        return alg.from_grid(g)

    # (i, j, which image, expected tag); positions chosen to hit one relation each
    cases = [
        (2, 0, "du", "A"),
        (0, 2, "dv", "B"),
        (2, 0, "dv", "REL1"),     # pairs with a[0][m-1] via alpha/beta weights
        (2, 2, "dv", "REL2"),     # pairs with a[0][1]
        (1, 0, "dv", "REL3"),     # pairs with a[2][m-1]
        (1, 2, "dv", "REL4"),     # pairs with a[2][1]
    ]
    for i, j, which, tag in cases:
        du, dv = d.du, d.dv
        if which == "du":
            du = bump(du, i, j)
        else:
            dv = bump(dv, i, j)
        verdict = validate(alg, du, dv)
        assert not verdict.ok
        assert tag in verdict.failing, (i, j, which, verdict.failing)
        # the minor identity follows from the relations, so it can fail only with a REL tag
        assert minor_identity_holds(alg, du, dv) or any(t.startswith("REL") for t in verdict.failing)


def _bump(elem, i, j):
    g = [list(r) for r in elem.grid]
    g[i][j] = g[i][j] + elem.algebra.field.one()
    return elem.algebra.from_grid(g)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_minor_identity_holds_on_valid_derivations(m, rng):
    alg = make_algebra(m)
    for _ in range(3):
        d = random_valid_derivation(alg, rng)
        assert validate(alg, d.du, d.dv).ok
        assert minor_identity_holds(alg, d.du, d.dv)


@pytest.mark.parametrize("m", range(2, 10))
def test_single_condition_perturbations_against_the_minor_identity(m, rng):
    """Each bump breaks exactly one condition; the REL tags fail exactly when the minor identity does.

    Over d/dt and over the zero derivation, whose standard rates are zero.
    """
    for derivation in ("dt", "zero"):
        alg = make_algebra(m, derivation)
        d = random_valid_derivation(alg, rng)
        assert validate(alg, d.du, d.dv).failing == []
        # (image, i, j, tag): the entry bumped by one and the only condition it enters
        cases = [("du", 1, 0, "A"), ("dv", 0, 1, "B"), ("dv", m - 1, 0, "REL1")]
        if m >= 3:
            cases += [("dv", m - 1, 2, "REL2"), ("dv", 1, 0, "REL3"), ("dv", 1, 2, "REL4")]
        for which, i, j, tag in cases:
            du = _bump(d.du, i, j) if which == "du" else d.du
            dv = _bump(d.dv, i, j) if which == "dv" else d.dv
            verdict = validate(alg, du, dv)
            assert verdict.failing == [tag]
            assert minor_identity_holds(alg, du, dv) == (tag in ("A", "B"))


def _oracle_theta(d):
    """Solve d - d_s = inner(theta) as a linear system; independent of the
    closed-form decomposition."""
    alg = d.algebra
    ds = standard_derivation(alg)
    target = (d.du - ds.du).to_vector() + (d.dv - ds.dv).to_vector()
    cols = []
    u1, v1 = alg.u(), alg.v()
    for b in alg.basis():
        cols.append((u1 * b - b * u1).to_vector() + (v1 * b - b * v1).to_vector())
    n = len(target)
    matrix = [[cols[c][r] for c in range(len(cols))] for r in range(n)]
    sol = solve_affine(matrix, target, alg.field)
    assert sol is not None
    grid = [[sol[i * alg.m + j] for j in range(alg.m)] for i in range(alg.m)]
    theta = alg.from_grid(grid)
    # normalize to trace zero; inner parts of scalars vanish
    g = [list(r) for r in theta.grid]
    g[0][0] = alg.field.zero()
    return alg.from_grid(g)


@pytest.mark.parametrize("m", [2, 3])
def test_decompose_against_linear_oracle(m, rng):
    alg = make_algebra(m)
    for _ in range(8):
        d = random_valid_derivation(alg, rng)
        theta = decompose(d)
        assert (0, 0) not in theta.terms
        assert theta == _oracle_theta(d)
        assert decompose(Derivation(alg, d.du, d.dv)) == theta


def _oracle_thetas(alg, rng):
    """Zero, seeded trace-zero thetas, and one with w and a pole in its coefficients, row m - 1 included."""
    k = alg.field
    t, w = k.gen(), k.omega()
    m = alg.m
    wide = alg.monomial(m - 1, 1, w * t / (t + 2)) + alg.monomial(1, m - 1, (t - w) / (t * t + 3))
    return [alg.zero_elem(), wide] + [random_trace_zero(alg, rng, entries=4) for _ in range(2)]


@pytest.mark.parametrize("derivation", ["dt", "zero"])
@pytest.mark.parametrize("m", range(2, 10))
def test_decompose_matches_the_dividing_oracle(m, derivation, rng):
    """The cached inverses give the theta that dividing on every call gives, with and without a monic alpha."""
    k = RatFuncField(CycloField(m), "t", derivation)
    t = k.gen()
    for alpha in (t, t * 3 + k.omega()):
        alg = SymbolAlgebra(k, alpha, t + k.one(), m)
        for theta in _oracle_thetas(alg, rng):
            d = standard_derivation(alg) + inner_derivation(theta)
            got = decompose(d)
            assert got == dividing_decompose(d)
            assert got == theta
            assert decompose(Derivation(alg, d.du, d.dv)) == theta
        # a second decompose reads the same cached inverses
        assert decompose(d) == theta


def test_decompose_rejects_invalid():
    alg = make_algebra(2)
    with pytest.raises(ValueError):
        decompose(Derivation(alg, alg.u() * alg.v(), alg.v()))



def test_images_are_validated_only_when_they_do_not_come_back(monkeypatch, rng):
    """d_s + inner(theta) is a derivation, so giving the images back decides validity;
    validate runs only to name the failing conditions in the same ValueError."""
    alg = make_algebra(3)
    d = random_valid_derivation(alg, rng)
    bad_du = d.du + alg.monomial(2, 0, 1)
    expected = f"not a derivation: conditions {validate(alg, bad_du, d.dv).failing} fail"
    calls = []
    monkeypatch.setattr(deriv_module, "validate", lambda *args: calls.append(args) or validate(*args))
    assert decompose(Derivation(alg, d.du, d.dv)) == d.theta
    assert calls == []
    with pytest.raises(ValueError) as info:
        Derivation(alg, bad_du, d.dv)
    assert str(info.value) == expected and len(calls) == 1
    # invalid images that validate passed would be a fault of the solve: a self-check
    monkeypatch.setattr(deriv_module, "validate", lambda *args: DerivationVerdict(ok=True))
    with pytest.raises(AssertionError, match="failed to reproduce"):
        Derivation(alg, bad_du, d.dv)

def test_standard_plus_standard_is_rejected_over_a_nonzero_base_derivation():
    alg = make_algebra(2)
    ds = standard_derivation(alg)
    # d_s + d_s differentiates t twice, so it fails conditions A and B
    assert validate(alg, ds.du + ds.du, ds.dv + ds.dv).failing == ["A", "B"]
    with pytest.raises(ValueError, match="twice"):
        ds + ds
    with pytest.raises(ValueError, match="twice"):
        (ds + inner_derivation(alg.v())) + ds
    # over the zero base derivation d_s = 0, so d_s + d_s = d_s
    alg0 = make_algebra(2, "zero")
    assert decompose(standard_derivation(alg0) + standard_derivation(alg0)).is_zero()


@pytest.mark.parametrize("m", [2, 3])
def test_trace_compatibility(m, rng):
    # tr(d(a)) = delta(tr(a))
    alg = make_algebra(m)
    for _ in range(10):
        d = random_valid_derivation(alg, rng)
        a = random_element(alg, rng)
        assert d.apply(a).trace() == a.trace().derive()


@pytest.mark.parametrize("m", [2, 3, 5])
def test_constants_inner_u(m):
    alg = make_algebra(m, derivation="zero")
    basis = constants_inner(alg.u())
    assert len(basis) == m


def test_constants_inner_needs_zero_derivation():
    alg = make_algebra(2)
    with pytest.raises(ValueError):
        constants_inner(alg.u())


def test_constants_inner_random_thetas(rng):
    for m in (2, 3):
        alg = make_algebra(m, derivation="zero")
        for _ in range(5):
            theta = random_trace_zero(alg, rng)
            assert len(constants_inner(theta)) >= m


def test_constants_standard_witnesses():
    k = RatFuncField(CycloField(3), "t")
    t = k.gen()
    alg = SymbolAlgebra(k, t * 2, t, 3)
    pairs = [(w.i, w.j) for w in constants_standard(alg)]
    assert (1, 2) in pairs
    alg2 = make_algebra(3)
    assert constants_standard(alg2) == []


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_constants_standard_agrees_with_the_quotient_loop(m, rng):
    """Witnesses read off -i v_alpha - j v_beta equal those of one decomposed quotient alpha^-i beta^-j per (i, j)."""
    k = RatFuncField(CycloField(m), "t")
    kinds = {"power": 0, "not a power": 0}
    for _ in range(6):
        alpha, beta, _nu = sharing_radicands(k, m, rng)
        alg = SymbolAlgebra(k, alpha, beta, m)
        got = [(w.i, w.j, w.c, w.h) for w in constants_standard(alg)]
        assert got == quotient_constants_standard(alg), (alpha, beta)
        kinds["power"] += len(got)
        kinds["not a power"] += m * m - 1 - len(got)
    assert min(kinds.values()) >= 2, kinds


def test_subfield_stability():
    alg = make_algebra(3)
    ds = standard_derivation(alg)
    assert subfield_stable(ds, alg.u())
    assert subfield_stable(ds, alg.v())
    d = ds + inner_derivation(alg.v())
    assert not subfield_stable(d, alg.u())


def _apply_inputs(alg, rng, coeff):
    """(name, element) pairs: a scalar, a monomial and a dense element, each coefficient from coeff(rng)."""
    m = alg.m
    dense = [[coeff(rng) if rng.random() < 0.6 else alg.field.zero() for _ in range(m)] for _ in range(m)]
    return [
        ("scalar", alg.scalar(coeff(rng))),
        ("monomial", alg.monomial(rng.randrange(m), rng.randrange(1, m), coeff(rng))),
        ("dense", alg.from_grid(dense)),
    ]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_apply_agrees_with_the_two_product_commutator(m, rng):
    """One pass over the pairs of terms gives d_s(x) + x theta - theta x, over k and over k(xi) through extend."""
    alg = make_algebra(m)
    k = alg.field
    t = k.gen()
    ext = alg.extend(KummerField(k, alg.alpha, m, "xi"))
    xi = ext.field.gen()

    def k_coeff(rng):
        return t * rng.randint(-3, 3) + rng.randint(1, 4)

    def ext_coeff(rng):
        return ext.field.coerce(k_coeff(rng)) + xi ** rng.randrange(m) * rng.randint(-2, 2)

    thetas = {
        "zero": alg.zero_elem(),
        "one term": alg.monomial(rng.randrange(m), rng.randrange(1, m), k_coeff(rng)),
        "dense": random_trace_zero(alg, rng, entries=m * m // 2),
    }
    for includes_ds in (True, False):
        for name, theta in thetas.items():
            d = deriv_module._derivation(alg, theta, includes_ds)
            d_ext = d.extend(ext)
            for kind, x in _apply_inputs(alg, rng, k_coeff):
                assert d.apply(x) == two_product_apply(d, x), (includes_ds, name, kind)
            for kind, x in _apply_inputs(ext, rng, ext_coeff):
                assert d_ext.apply(x) == two_product_apply(d_ext, x), (includes_ds, name, kind, "k(xi)")


def test_apply_on_a_monomial_takes_no_symbol_product(monkeypatch, rng):
    alg = make_algebra(5)
    d = random_valid_derivation(alg, rng)
    x = alg.monomial(2, 3, alg.field.gen())
    expected = two_product_apply(d, x)

    def refuse(*args):
        raise AssertionError("SymbolElem.__mul__ called")

    monkeypatch.setattr(SymbolElem, "__mul__", refuse)
    assert d.apply(x) == expected
