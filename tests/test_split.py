"""Splitting constructions: Phi, transported P, gauges, and refutations."""

import copy
from dataclasses import dataclass

import pytest

import diffsym.linalg
import diffsym.matdiff
from diffsym import SymbolAlgebra, decompose, inner_derivation, split_standard, standard_derivation
from diffsym.deriv import subfield_stable, validate
from diffsym.errors import SelfCheckError
from diffsym.matdiff import DiffMatrix, apply_dP
from diffsym.parser import parse_scalar, scalar_to_str
from diffsym.scalars import CycloField, KummerElem, KummerField, RatFuncField
from diffsym.symalg import minimal_polynomial
from diffsym.split import (
    IsoVerdict,
    PhiMap,
    closed_form_P,
    compute_P,
    find_twist_partner,
    _diagonal_split,
    maximal_subfield_necessary,
    split_generic,
    split_inner_cyclic,
    split_inner_even_half,
    t_r_values,
    verify_diff_isomorphism,
    xi_extension,
)
from generators import random_element, random_u_polynomial, random_valid_derivation, sharing_radicands
from oracles import (
    compute_w,
    dense_kummer_conjugate,
    dense_phi,
    dense_phimap_relations,
    entrywise_P,
    full_basis_verdict,
    quotient_maximal_witnesses,
    summed_generic_images,
)


def make_algebra(m, derivation="dt"):
    k = RatFuncField(CycloField(m), "t", derivation)
    t = k.gen()
    return SymbolAlgebra(k, t, t + k.one(), m)


def make_phi(alg):
    return PhiMap(alg, KummerField(alg.field, alg.alpha, alg.m, "xi"))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_sparse_apply_matches_dense(m, rng):
    alg = make_algebra(m)
    phi = make_phi(alg)
    ext = phi.ext_algebra
    xi = phi.ext_field.gen()
    # u^i for i >= 2 first, the highest first, so that the first apply builds
    # every row of the A^i table at once and the later ones build none
    for i in range(m - 1, 1, -1):
        x = ext.monomial(i, rng.randrange(m), xi ** rng.randrange(m)) + ext.u()
        assert phi.apply(x) == dense_phi(phi, x)
    for _ in range(3):
        a = ext.coerce_elem(random_element(alg, rng))
        b = ext.coerce_elem(random_element(alg, rng))
        x = a + b.scale(xi ** rng.randrange(1, m))
        assert phi.apply(x) == dense_phi(phi, x)


@pytest.mark.parametrize("m", [2, 3])
def test_generator_check_matches_full_basis(m, rng):
    alg = make_algebra(m)
    phi = make_phi(alg)
    e = phi.ext_field
    labels = set()
    for _ in range(2):
        d = random_valid_derivation(alg, rng)
        p = compute_P(d, phi)
        # xi on one entry; a diagonal entry commutes with A, so only v fails,
        # and xi B commutes with B, so only u fails
        perturbed = [p + DiffMatrix.unit(e, m, r, s, e.gen()) for r in range(m) for s in range(m)]
        perturbed.append(p + phi.b_mat.scale(e.gen()))
        for q in [p] + perturbed:
            verdict = verify_diff_isomorphism(phi, d, q)
            assert verdict == full_basis_verdict(phi, d, q)
            labels.add(verdict.failing_basis)
    assert labels == {None, (0, 1), (1, 0)}


def test_isomorphism_check_covers_the_variable_t():
    """inner(v) does not differentiate t, but d/dt does: Phi(d*(t)) = 0 while d_P(tI) = I."""
    k = RatFuncField(CycloField(2), "t")
    alg = SymbolAlgebra(k, 2, 3, 2)
    phi = make_phi(alg)
    d = inner_derivation(alg.v())
    p = phi.apply(alg.v())
    t = phi.ext_algebra.scalar(k.gen())
    assert not phi.apply(d.extend(phi.ext_algebra).apply(t)) == apply_dP(p, phi.apply(t))
    verdict = verify_diff_isomorphism(phi, d, p)
    assert verdict == IsoVerdict(False, ("t",))
    assert verdict == full_basis_verdict(phi, d, p)
    # over the zero base derivation the same map is a differential isomorphism
    k0 = RatFuncField(CycloField(2), "t", "zero")
    alg0 = SymbolAlgebra(k0, 2, 3, 2)
    phi0 = make_phi(alg0)
    assert verify_diff_isomorphism(phi0, inner_derivation(alg0.v()), phi0.apply(alg0.v())).ok


def test_inner_alone_decomposes_only_over_the_zero_base_derivation():
    """inner(v) passes validate over d/dt with constant alpha, beta, but it is no d_s + inner(theta)."""
    k = RatFuncField(CycloField(2), "t")
    alg = SymbolAlgebra(k, 2, 3, 2)
    d = inner_derivation(alg.v())
    assert validate(alg, d.du, d.dv).ok
    with pytest.raises(ValueError, match="does not differentiate"):
        decompose(d)
    with pytest.raises(ValueError, match="does not differentiate"):
        compute_P(d, make_phi(alg))
    k0 = RatFuncField(CycloField(2), "t", "zero")
    alg0 = SymbolAlgebra(k0, 2, 3, 2)
    phi0 = make_phi(alg0)
    assert decompose(inner_derivation(alg0.v())) == alg0.v()
    assert compute_P(inner_derivation(alg0.v()), phi0) == phi0.apply(alg0.v())


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7])
def test_t_r_closed_form(m):
    from fractions import Fraction

    for r in range(m):
        assert t_r_values(m)[r] == Fraction(m - 1, 2) - r


def test_t_r_values_returns_a_fresh_list():
    from fractions import Fraction

    from diffsym.cli import _case_tr_identity

    first = t_r_values(5)
    first[0] = Fraction(99)
    first.append(Fraction(7))
    assert t_r_values(5) == [Fraction(2 - r) for r in range(5)]
    assert t_r_values(5) is not t_r_values(5)
    assert t_r_values(5)[0] == 2
    assert _case_tr_identity() == (True, "closed form matches the cyclotomic sum for m in {2,3,4,5,7}")


def test_t_r_values_checks_the_sums_on_the_first_call(monkeypatch):
    from fractions import Fraction

    import diffsym.split as split_module

    split_module._checked_t_r.cache_clear()
    monkeypatch.setattr(split_module, "Fraction", lambda a, b: Fraction(a, b) + 1)
    with pytest.raises(AssertionError, match="t_r sum disagrees"):
        t_r_values(5)
    monkeypatch.undo()
    assert t_r_values(5) == [Fraction(2 - r) for r in range(5)]


@pytest.mark.parametrize("m", [2, 3, 5])
def test_phi_relations(m):
    # constructor asserts A^m = alpha I, B^m = beta I, BA = w AB
    phi = make_phi(make_algebra(m))
    assert phi.apply(phi.algebra.one()) == phi.a_mat * 0 + phi.b_mat**0


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_phi_is_multiplicative(m, rng):
    alg = make_algebra(m)
    phi = make_phi(alg)
    for _ in range(6):
        a, b = random_element(alg, rng), random_element(alg, rng)
        assert phi.apply(a * b) == phi.apply(a) * phi.apply(b)


def _relation_algebras(m):
    """(t, t+1), a pair with w in its coefficients and a pair of degree 2, at degree m."""
    k = RatFuncField(CycloField(m), "t")
    t, w = k.gen(), k.coerce(k.cyclo.omega())
    return [SymbolAlgebra(k, a, b, m) for a, b in ((t, t + 1), (w * t, t + w), (t * t + 1, t * (t + 2)))]


def _corruptions(phi):
    """(A, B, the relation the check names): one entry of A or B changed, or all of A doubled."""
    e, m = phi.ext_field, phi.algebra.m
    a, b = phi.a_mat, phi.b_mat
    last = m - 1

    def changed(mat, r, s, value):
        rows = [list(row) for row in mat.rows]
        rows[r][s] = value
        return DiffMatrix(e, rows)

    omega = e.coerce(e.cyclo.omega())
    return [
        # row r of BA = w AB reads A[r-1][r-1] and A[r][r], row 0 A[m-1][m-1]
        (changed(a, 0, 0, a.rows[0][0] + e.one()), b, r"BA != omega AB: row 0"),
        # (w A[r][r])^m = alpha still
        (changed(a, last, last, a.rows[last][last] * omega), b, r"BA != omega AB: row 0"),
        # 2A keeps BA = w AB, and (2A)^m = 2^m alpha I
        (a.scale(2), b, r"A\^m != alpha I"),
        (a, changed(b, 0, last, b.rows[0][last] + e.one()), r"B\^m != beta I"),
        (a, changed(b, last, last - 1, e.coerce(2)), r"B\^m != beta I"),
        (changed(a, 0, last, e.one()), b, rf"A is not diagonal: entry \(0, {last}\)"),
        (changed(a, last, 0, e.gen()), b, rf"A is not diagonal: entry \({last}, 0\)"),
        (a, changed(b, 0, 0, e.one()), r"B is not a weighted cyclic shift: entry \(0, 0\)"),
        (a, changed(b, last, last, e.gen()), rf"B is not a weighted cyclic shift: entry \({last}, {last}\)"),
    ]


@pytest.mark.parametrize("m", range(2, 9))
def test_relation_check_agrees_with_the_dense_oracle(m):
    """Both pass on Phi, and each corruption of A or B makes both raise."""
    for alg in _relation_algebras(m):
        phi = make_phi(alg)
        phi._validate_relations()
        dense_phimap_relations(phi)
        for a_mat, b_mat, relation in _corruptions(phi):
            bad = copy.copy(phi)
            bad.a_mat, bad.b_mat = a_mat, b_mat
            with pytest.raises(SelfCheckError, match=relation):
                bad._validate_relations()
            with pytest.raises(AssertionError):
                dense_phimap_relations(bad)


def test_phimap_takes_no_matrix_product(monkeypatch):
    """At m = 16, building A and checking the relations take 84 Kummer products; the dense check took 10 matrix products."""
    alg = make_algebra(16)
    xi_field = xi_extension(alg)
    calls = {DiffMatrix: 0, KummerElem: 0}
    for cls in calls:
        product = cls.__mul__

        def counted(x, y, cls=cls, product=product):
            calls[cls] += 1
            return product(x, y)

        monkeypatch.setattr(cls, "__mul__", counted)
    PhiMap(alg, xi_field)
    assert calls[DiffMatrix] == 0
    assert calls[KummerElem] <= 200


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name so each call appends its arguments to the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("m", [2, 3, 5])
def test_the_isomorphism_check_applies_phi_twice(m, rng, monkeypatch):
    """Phi(u) = A and Phi(v) = B are read from the PhiMap; only Phi(d*(u)) and Phi(d*(v)) are built."""
    alg = make_algebra(m)
    phi = make_phi(alg)
    d = random_valid_derivation(alg, rng)
    p = compute_P(d, phi)
    calls = _count_calls(monkeypatch, PhiMap, "apply")
    assert verify_diff_isomorphism(phi, d, p) == IsoVerdict(True, None)
    assert len(calls) == 2


def test_ps_is_built_once_per_phimap():
    alg = make_algebra(3)
    phi = make_phi(alg)
    assert phi.p_s is phi.p_s
    assert make_phi(alg).p_s is not phi.p_s
    assert make_phi(alg).p_s == phi.p_s


@pytest.mark.parametrize("m", [2, 4])
def test_the_generic_gauge_is_decided_at_the_identity_with_no_solve(m, rng, monkeypatch):
    """split_generic's F = X specialises to I at the first point, which decides det F != 0 with no elimination."""
    alg = make_algebra(m)
    p = compute_P(random_valid_derivation(alg, rng), make_phi(alg))
    solves = _count_calls(monkeypatch, diffsym.matdiff, "kernel_basis")
    applies = _count_calls(monkeypatch, PhiMap, "apply")
    rep = split_generic(p)
    assert rep.passed
    assert (rep.gauge.det_method, rep.gauge.det_point) == ("specialisation", 0)
    assert solves == [] and applies == []


@pytest.mark.parametrize("m", [2, 3])
def test_w_conjugates_the_standard_derivation(m):
    # d_s + inner(w) on A tensor k(xi) is the Phi-pullback of delta^c
    alg = make_algebra(m)
    phi = make_phi(alg)
    w = compute_w(phi)
    ds_ext = standard_derivation(alg).extend(phi.ext_algebra)
    d_phi = ds_ext + inner_derivation(w)
    for x in phi.ext_algebra.basis():
        assert phi.apply(d_phi.apply(x)) == phi.apply(x).derive()


@pytest.mark.parametrize("m", [2, 3])
def test_transported_P_closed_form_and_iso(m, rng):
    alg = make_algebra(m)
    phi = make_phi(alg)
    for _ in range(4):
        d = random_valid_derivation(alg, rng)
        p = compute_P(d, phi)
        assert verify_diff_isomorphism(phi, d, p).ok


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7])
def test_minus_phi_of_w_is_Ps(m):
    # the w-correction of Phi(theta - w) is the diagonal P_s that compute_P adds
    phi = make_phi(make_algebra(m))
    assert phi.apply(-compute_w(phi)) == phi.p_s


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_P_matches_both_oracles(m, rng):
    alg = make_algebra(m)
    phi = make_phi(alg)
    for _ in range(2):
        d = random_valid_derivation(alg, rng)
        theta = decompose(d)
        p = compute_P(d, phi)
        assert p == entrywise_P(theta, phi)
        assert p == dense_phi(phi, phi.ext_algebra.coerce_elem(theta) - compute_w(phi))


def test_closed_form_matches_for_standard(rng):
    alg = make_algebra(3)
    phi = make_phi(alg)
    d = standard_derivation(alg)
    assert closed_form_P(decompose(d), phi) == phi.p_s


@pytest.mark.parametrize("m,deg", [(3, 9), (5, 25), (7, 49)])
def test_split_standard_odd(m, deg):
    rep = split_standard(make_algebra(m))
    assert rep.passed
    assert rep.degree == deg
    assert rep.transcendence_degree == 0


@pytest.mark.parametrize("m,deg", [(2, 8), (4, 32)])
def test_split_standard_even(m, deg):
    rep = split_standard(make_algebra(m))
    assert rep.passed
    assert rep.degree == deg


def test_split_standard_constant_beta():
    k = RatFuncField(CycloField(2), "t")
    alg = SymbolAlgebra(k, k.gen(), k.coerce(3), 2)
    rep = split_standard(alg)
    assert rep.passed
    assert rep.degree == 2  # only the xi level is needed when delta(beta) = 0


@pytest.mark.parametrize("m", [2, 3])
def test_split_inner_cyclic(m):
    alg = make_algebra(m, derivation="zero")
    rep = split_inner_cyclic(alg, alg.u())
    assert rep.passed
    assert rep.transcendence_degree == m


def test_split_inner_rejects_degenerate():
    alg = make_algebra(2, derivation="zero")
    with pytest.raises(ValueError):
        split_inner_cyclic(alg, alg.one())  # scalar: no degree-m subfield
    with pytest.raises(ValueError):
        split_inner_cyclic(alg, alg.v())    # not a polynomial in u
    with pytest.raises(ValueError):
        split_inner_cyclic(make_algebra(2), alg.u())  # nonzero base derivation


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_split_inner_degree_test_agrees_with_the_minimal_polynomial(m, rng):
    # accepted exactly when rho's minimal polynomial has degree m: 42 rho per m
    alg = make_algebra(m, derivation="zero")
    rhos = [alg.zero_elem(), alg.scalar(3), alg.scalar(alg.field.gen())]
    rhos += [alg.u(d) for d in range(1, m + 1) if m % d == 0]
    rhos += [random_u_polynomial(alg, rng) for _ in range(42 - len(rhos))]
    accepted = []
    for rho in rhos:
        try:
            rep = split_inner_cyclic(alg, rho)
        except ValueError as exc:
            assert str(exc) == "rho does not generate a degree-m subfield"
            accepted.append(False)
        else:
            assert rep.passed and rep.transcendence_degree == m
            accepted.append(True)
        assert accepted[-1] == (minimal_polynomial(rho).degree == m), rho
    assert len(accepted) == 42 and True in accepted and False in accepted


def test_split_inner_performs_no_elimination(monkeypatch):
    def no_elimination(*args):
        raise AssertionError("an elimination ran")

    monkeypatch.setattr(diffsym.linalg, "_rref", no_elimination)
    alg = make_algebra(7, derivation="zero")
    t = alg.field.gen()
    rho = sum((alg.u(i).scale(c) for i, c in enumerate([t + 1, 2 * t - 1, t + 3, t - 2, 5, t], 1)), alg.zero_elem())
    assert split_inner_cyclic(alg, rho).passed
    with pytest.raises(ValueError, match="degree-m subfield"):
        split_inner_cyclic(alg, alg.scalar(t))
    with pytest.raises(AssertionError, match="an elimination ran"):
        minimal_polynomial(rho)  # the oracle eliminates, so the patch is live


@pytest.mark.parametrize("m", [2, 4])
def test_split_inner_even_half(m):
    alg = make_algebra(m, derivation="zero")
    rep = split_inner_even_half(alg, alg.u())
    assert rep.passed
    assert rep.transcendence_degree == m // 2
    assert rep.to_json()["diagnostics"] == []
    # P agrees with the image of u
    phi = make_phi(alg)
    assert rep.p == phi.apply(alg.coerce_elem(alg.u()))


def test_block_antisymmetry_of_the_half_construction_is_a_self_check(monkeypatch, capsys):
    from diffsym.cli import main

    apply = PhiMap.apply

    def broken(self, x):
        rows = [list(row) for row in apply(self, x).rows]
        rows[1][1] = rows[1][1] + self.ext_field.one()
        return DiffMatrix(self.ext_field, rows)

    monkeypatch.setattr(PhiMap, "apply", broken)
    alg = make_algebra(4, derivation="zero")
    with pytest.raises(AssertionError, match="block antisymmetry of P fails at row 1"):
        split_inner_even_half(alg, alg.u())
    assert main(["split", "inner", "--m", "4", "--alpha", "t", "--beta", "t+1", "--rho", "u", "--half"]) == 3
    assert capsys.readouterr().err == "internal self-check failed: block antisymmetry of P fails at row 1\n"


def test_split_inner_even_half_rejects_odd():
    alg = make_algebra(3, derivation="zero")
    with pytest.raises(ValueError):
        split_inner_even_half(alg, alg.u())


def test_split_generic(rng):
    alg = make_algebra(2)
    phi = make_phi(alg)
    d = random_valid_derivation(alg, rng)
    p = compute_P(d, phi)
    rep = split_generic(p)
    assert rep.passed
    assert rep.gauge.det_nonzero
    assert rep.transcendence_degree == 4


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_one_pass_generic_images_agree_with_the_sum_of_scales(m, rng):
    """delta(x_rs) on P with a zero row, on a dense P, at theta = 0 (P = P_s, diagonal) and on a computed P;
    F is the field's own generators, and the gauge passes at the identity point."""
    alg = make_algebra(m)
    k = alg.field
    t = k.gen()
    phi = make_phi(alg)
    entries = [k.one(), t, t + 3, (t - 1) / (t + 2), k.omega(), -k.one()]
    sparse = [[rng.choice(entries) if rng.random() < 0.3 else k.zero() for _ in range(m)] for _ in range(m)]
    sparse[rng.randrange(m)] = [k.zero()] * m
    samples = [
        DiffMatrix.zero(k, m),
        DiffMatrix(k, sparse),
        DiffMatrix(k, [[rng.choice(entries) for _ in range(m)] for _ in range(m)]),
        compute_P(standard_derivation(alg), phi),
        compute_P(random_valid_derivation(alg, rng), phi),
    ]
    for p in samples:
        rep = split_generic(p)
        e = rep.f.field
        assert [e.gen_derivative(i) for i in range(m * m)] == summed_generic_images(p, e)
        assert all(rep.f.rows[r][s] is e.gen(r * m + s) for r in range(m) for s in range(m))
        assert rep.passed and (rep.gauge.det_method, rep.gauge.det_point) == ("specialisation", 0)


@pytest.mark.parametrize("m", [8, 16])
def test_split_generic_at_large_m(m, rng):
    alg = make_algebra(m)
    phi = make_phi(alg)
    theta = random_element(alg, rng, entries=6)
    assert not theta.is_zero()
    d = standard_derivation(alg) + inner_derivation(theta)
    p = compute_P(d, phi)
    rep = split_generic(p)
    assert rep.passed and rep.transcendence_degree == m * m
    assert (rep.gauge.det_nonzero, rep.gauge.det_method, rep.gauge.det_point) == (True, "specialisation", 0)
    assert verify_diff_isomorphism(phi, d, p).ok
    # m > 10 pads the indices, so the m^2 names stay distinct
    names = rep.f.field.names
    assert len(set(names)) == m * m
    assert names[1] == ("x01" if m < 11 else "x0001")


def test_find_twist_partner():
    alg = make_algebra(3, derivation="zero")
    x = find_twist_partner(alg.u())
    assert x is not None
    w = alg.field.coerce(alg.omega)
    assert x * alg.u() == (alg.u() * x).scale(w)
    assert (x**3).is_scalar()


# The norm criterion runs as a test harness: from a constant theta outside
# k(u) it produces c with (alpha, c beta^p) split. `split maximal`
# (maximal_subfield_necessary) is the package's maximal-subfield check.


@dataclass
class NormSplitReport:
    p: int
    c: object
    ok: bool

    def to_json(self):
        return {"p": self.p, "c": scalar_to_str(self.c), "ok": self.ok}


def norm_split_check(algebra, d, theta):
    """From a constant theta outside k(u), produce c with (alpha, c beta^p) split.

    Requires x^m - alpha irreducible, so the norm is the full product of the
    m conjugates xi -> w^j xi.
    """
    theta = algebra.coerce_elem(theta)
    if not d.apply(theta).is_zero():
        raise ValueError("theta must be a constant of d")
    if not subfield_stable(d, algebra.u()):
        raise ValueError("d must preserve k(u)")
    m = algebra.m
    p = min((j for _, j in theta.terms if j), default=None)
    if p is None:
        raise ValueError("theta lies in k(u); no invertible v-component")
    xi_field = xi_extension(algebra)
    theta_p = xi_field.zero()
    xi = xi_field.gen()
    for (i, j), c in theta.terms.items():
        if j == p:
            theta_p = theta_p + xi**i * xi_field.coerce(c)
    gamma = theta_p.inv()
    norm = xi_field.one()
    for j in range(m):
        norm = norm * KummerElem(xi_field, dense_kummer_conjugate(gamma, j))
    if not norm.is_base():
        raise SelfCheckError("norm did not land in the base field")
    c = norm.base_value() / algebra.beta**p
    ok = c.derive().is_zero()
    return NormSplitReport(p=p, c=c, ok=ok)


def test_norm_split_check():
    k = RatFuncField(CycloField(3), "t")
    t = k.gen()
    alg = SymbolAlgebra(k, t * 2, t, 3)
    ds = standard_derivation(alg)
    theta = alg.monomial(1, 2, k.one() / t)
    rep = norm_split_check(alg, ds, theta)
    assert rep.ok
    assert rep.p == 2
    assert rep.c.derive().is_zero()
    report = rep.to_json()
    assert report == {"p": 2, "c": report["c"], "ok": True}
    assert parse_scalar(report["c"], k) == rep.c


def test_norm_split_check_rejects_non_constant():
    alg = make_algebra(3)
    ds = standard_derivation(alg)
    with pytest.raises(ValueError):
        norm_split_check(alg, ds, alg.v())


def test_maximal_subfield_refutes():
    alg = make_algebra(3)
    t = alg.field.gen()
    one = alg.field.one()
    for a in range(3):
        for b in range(3):
            if a == 0 and b == 0:
                continue
            rep = maximal_subfield_necessary(alg, t**a * (t + one) ** b)
            assert rep.refuted


def test_maximal_subfield_accepts_alpha_root():
    # nu = alpha itself satisfies the alpha-side necessary condition trivially,
    # but the beta side still fails here
    alg = make_algebra(3)
    rep = maximal_subfield_necessary(alg, alg.alpha)
    assert rep.alpha_witness is not None
    assert rep.beta_witness is None


@pytest.mark.parametrize("m", [2, 3, 5, 7])
def test_maximal_subfield_agrees_with_the_quotient_loop(m, rng):
    """Witnesses read off v - r v_nu equal those of one decomposed quotient value / nu^r per r, refusals included."""
    k = RatFuncField(CycloField(m), "t")
    kinds = {"witness": 0, "no witness": 0, "refused": 0}
    for _ in range(10):
        alpha, beta, nu = sharing_radicands(k, m, rng)
        alg = SymbolAlgebra(k, alpha, beta, m)
        try:
            want = quotient_maximal_witnesses(alg, nu)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                maximal_subfield_necessary(alg, nu)
            kinds["refused"] += 1
            continue
        rep = maximal_subfield_necessary(alg, nu)
        assert (rep.alpha_witness, rep.beta_witness) == want, (alpha, beta, nu)
        for wit in want:
            kinds["no witness" if wit is None else "witness"] += 1
    assert min(kinds["witness"], kinds["no witness"]) >= 2, kinds


def test_maximal_subfield_hypothesis_guard():
    k = RatFuncField(CycloField(3), "t")
    t = k.gen()
    alg = SymbolAlgebra(k, t**3, t + k.one(), 3)
    with pytest.raises(ValueError):
        maximal_subfield_necessary(alg, t)


def _diagonal_inputs(kind, m):
    """(phi, d, report, gens, exponents) of one explicit construction, as it calls _diagonal_split."""
    if kind in ("eta", "zeta"):
        alg = make_algebra(m)
        rep = split_standard(alg)
        n = 1 if kind == "eta" else 2
        assert rep.f.field.gen_name == kind and rep.f.field.m == n * m
        exponents = [[int(n * t)] for t in t_r_values(m)]
        return PhiMap(alg, rep.f.field.base), standard_derivation(alg), rep, [rep.f.field.gen()], exponents
    alg = make_algebra(m, derivation="zero")
    rho = alg.coerce_elem(alg.u())
    rep = split_inner_cyclic(alg, rho) if kind == "cyclic" else split_inner_even_half(alg, rho)
    e = rep.f.field
    eye = [[int(r == i) for i in range(e.n)] for r in range(e.n)]
    exponents = eye if kind == "cyclic" else eye + [[-x for x in row] for row in eye]
    return PhiMap(alg, e.base), inner_derivation(rho), rep, [e.gen(i) for i in range(e.n)], exponents


@pytest.mark.parametrize("kind,m", [("eta", 3), ("eta", 5), ("zeta", 2), ("zeta", 4), ("cyclic", 3), ("half", 4)])
def test_diagonal_split_fails_at_the_row_whose_exponent_is_off_by_one(kind, m):
    phi, d, rep, gens, exponents = _diagonal_inputs(kind, m)
    e = rep.f.field
    same = _diagonal_split(phi, d, rep.p, e, gens, exponents, rep.extension)
    assert same.passed and same.f == rep.f and same.to_json() == rep.to_json()
    for r in range(m):
        wrong = [list(row) for row in exponents]
        wrong[r][r % len(gens)] += 1
        bad = _diagonal_split(phi, d, rep.p, e, gens, wrong, rep.extension)
        assert not bad.passed and not bad.gauge.ok
        assert bad.gauge.failing_entry == (r, r)
        assert (bad.gauge.det_nonzero, bad.gauge.det_method) == (True, "diagonal")
        assert bad.isomorphism.ok
        assert [bad.f.rows[s][s] == rep.f.rows[s][s] for s in range(m)] == [s != r for s in range(m)]
