"""Splitting constructions: Phi, transported P, gauges, and refutations."""

import copy
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

import diffsym.linalg
import diffsym.matdiff
from diffsym import SymbolAlgebra, decompose, inner_derivation, split_standard, standard_derivation
from diffsym.deriv import subfield_stable, validate
from diffsym.errors import SelfCheckError
from diffsym.matdiff import DiffMatrix, apply_dP, verify_gauge
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
    split_inner,
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
    kummer_from_coeffs,
    paper_standard_gauge,
    quotient_maximal_witnesses,
    rate_coordinates,
    rational_rank,
    summed_closed_form_P,
    summed_generic_images,
)


def make_algebra(m, derivation="dt"):
    k = RatFuncField(CycloField(m), "t", derivation)
    t = k.gen()
    return SymbolAlgebra(k, t, t + k.one(), m)


def make_phi(alg):
    return PhiMap(alg, KummerField(alg.field, alg.alpha, alg.m, "xi"))


@pytest.mark.parametrize("m", range(2, 8))
def test_sparse_apply_matches_dense(m, rng):
    alg = make_algebra(m)
    phi = make_phi(alg)
    ext = phi.ext_algebra
    xi = phi.ext_field.gen()
    # u^i for i >= 2, the highest first, each with xi^l for a random l, so that
    # l + i wraps past m, and the gather takes alpha, on some of them
    for i in range(m - 1, 1, -1):
        x = ext.monomial(i, rng.randrange(m), xi ** rng.randrange(m)) + ext.u()
        assert phi.apply(x) == dense_phi(phi, x)
    for _ in range(3):
        a = ext.coerce_elem(random_element(alg, rng))
        b = ext.coerce_elem(random_element(alg, rng))
        x = a + b.scale(xi ** rng.randrange(1, m))
        assert phi.apply(x) == dense_phi(phi, x)
    # a term in every column j, so each row r < m - 1 takes beta through some c * beta
    for _ in range(2):
        x = ext.coerce_elem(random_element(alg, rng))
        for j in range(m):
            c = ext.field.coerce(alg.field.gen() + rng.randint(-3, 3)) * xi ** rng.randrange(m)
            x = x + ext.monomial(rng.randrange(m), j, c)
        assert phi.apply(x) == dense_phi(phi, x)


@pytest.mark.parametrize("m", range(2, 8))
def test_the_gather_merges_and_drops_cancelled_xi_terms(m, rng):
    """Terms of A tensor k(xi) that meet on one entry and one power of xi merge, and a pair that
    cancels leaves no stored zero: a xi v^j and -a u v^j cancel at row 0 (A[0][0] = xi),
    a xi^(m-1) u v^j and b v^j meet at xi^0 through alpha, and an entry with nothing else left
    is the interned zero."""
    alg = make_algebra(m)
    phi = make_phi(alg)
    ext, e = phi.ext_algebra, phi.ext_field
    t, xi = alg.field.gen(), e.gen()
    for j in range(m):
        a = e.coerce(t + rng.randint(-3, 3))
        b = e.coerce(t * t + rng.randint(1, 3))
        pair = ext.monomial(0, j, a * xi) - ext.monomial(1, j, a)
        x = pair + ext.monomial(1, j, a * xi ** (m - 1)) + ext.monomial(0, j, b)
        for y in (pair, x):
            p = phi.apply(y)
            assert p == dense_phi(phi, y)
            assert all(not c.is_zero() for row in p.rows for entry in row for c in entry.terms.values())
        # entry (0, -j mod m): xi^1 cancelled, the xi^0 terms merged
        assert phi.apply(pair).rows[0][-j % m] is e.zero()
        assert p.rows[0][-j % m].terms.keys() == {0}


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


def test_phimap_refuses_xi_over_another_field():
    """Phi gathers its entries over the algebra's field, so k(xi) must be built over that field."""
    alg = make_algebra(3)
    other = RatFuncField(CycloField(3), "t", "zero")
    with pytest.raises(ValueError, match="own field"):
        PhiMap(alg, KummerField(other, other.gen(), 3, "xi"))
    # an equal field built apart is the same field
    same = RatFuncField(CycloField(3), "t")
    assert PhiMap(alg, KummerField(same, same.gen(), 3, "xi")).apply(alg.u()).rows[0][0].terms == {1: same.one()}


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


@pytest.mark.parametrize("m", range(2, 8))
def test_closed_form_P_matches_the_summed_oracle(m, rng):
    """One gather seeded with P_s's diagonal equals Phi(theta) + P_s as a matrix sum, and theta = 0 gives P_s."""
    alg = make_algebra(m)
    phi = make_phi(alg)
    for theta in [alg.zero_elem()] + [random_element(alg, rng) for _ in range(3)]:
        assert closed_form_P(theta, phi) == summed_closed_form_P(theta, phi)
    assert closed_form_P(alg.zero_elem(), phi) == phi.p_s
    # a diagonal of elements of k is coerced into k(xi)
    t, e = alg.field.gen(), phi.ext_field
    assert phi.apply(theta, [t] * m) == phi.apply(theta) + DiffMatrix.identity(e, m).scale(e.coerce(t))


def test_closed_form_P_drops_a_cancelled_diagonal_term(rng):
    """At m = 3 a u^0 v^0 term c = -P_s[0][0] cancels P_s at (0, 0): the entry is the interned zero."""
    alg = make_algebra(3)
    phi = make_phi(alg)
    c = -phi.p_s.rows[0][0].base_value()
    theta = alg.scalar(c) + alg.monomial(1, 1, alg.field.gen() + rng.randint(1, 3))
    p = closed_form_P(theta, phi)
    assert p == summed_closed_form_P(theta, phi)
    assert p.rows[0][0] is phi.ext_field.zero()
    assert all(not p.rows[r][r].is_zero() for r in (1, 2))


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


def _shift_algebra(m, radicands):
    """The algebra (t, t+1) or (t^2 + 1, 3t) of degree m over Q(w_m)(t)."""
    k = RatFuncField(CycloField(m), "t")
    t = k.gen()
    alpha, beta = (t, t + 1) if radicands == "t, t+1" else (t * t + 1, t * 3)
    return SymbolAlgebra(k, alpha, beta, m)


SHIFT_CASES = [(m, radicands) for m in range(2, 12) for radicands in ("t, t+1", "t^2+1, 3t")]


def _shifted_p(rep, extra=0):
    """P_s + (lambda + extra) I over k(xi), formed as a sum; split_standard builds it directly at extra = 0."""
    return rep.p + DiffMatrix.identity(rep.p.field, rep.p.size).scale(rep.scalar_shift + extra)


@pytest.mark.parametrize("m,radicands", SHIFT_CASES)
def test_split_standard_checks_p_s_plus_lambda_i_with_a_gauge_of_nonnegative_exponents(m, radicands, monkeypatch):
    import diffsym.split as split_module

    alg = _shift_algebra(m, radicands)
    checked, inverses = [], []
    # each verifier's argument p: verify_gauge(p, f) and verify_diff_isomorphism(phi, d, p)
    for name, at in (("verify_gauge", 0), ("verify_diff_isomorphism", 2)):
        original = getattr(split_module, name)
        monkeypatch.setattr(split_module, name, lambda *args, f=original, at=at: checked.append(args[at]) or f(*args))
    inv = KummerElem.inv
    monkeypatch.setattr(KummerElem, "inv", lambda x: inverses.append(x) or inv(x))
    rep = split_standard(alg)
    assert rep.passed and rep.degree == (m * m if m % 2 else 2 * m * m)
    e = rep.f.field
    n = e.m // m
    # lambda = t_0 delta(beta)/(m beta), t_0 = (m - 1)/2, and P stays the trace-zero P_s
    assert rep.scalar_shift == alg.beta.derive() / (alg.beta * m) * Fraction(m - 1, 2)
    assert rep.p == make_phi(alg).p_s and rep.p.trace().is_zero()
    # F[r][r] is g^(n (m - 1 - r)) with coefficient 1: no negative power, so no inverse
    one = e.base.one()
    assert [rep.f.rows[r][r].terms for r in range(m)] == [{n * (m - 1 - r): one} for r in range(m)]
    assert rep.f.rows[m - 1][m - 1] == e.one()
    assert inverses == []
    # the isomorphism verdict, then the gauge, each against P_s + lambda I exactly
    shifted = _shifted_p(rep)
    assert checked == [shifted, shifted.coerce_to(e)]


@pytest.mark.parametrize("m,radicands", SHIFT_CASES)
def test_the_shifted_gauge_is_g_to_the_n_t0_times_the_papers(m, radicands):
    alg = _shift_algebra(m, radicands)
    rep = split_standard(alg)
    e = rep.f.field
    g, n = e.gen(), e.m // m
    paper = paper_standard_gauge(e, m)
    assert rep.f == paper.scale(g ** (n * (m - 1) // 2))
    # the paper's gauge, with its inverses, is a gauge for the trace-zero P_s itself
    assert verify_gauge(rep.p.coerce_to(e), paper).ok


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
def test_at_even_m_the_shifted_gauge_lies_in_k_xi_zeta_squared(m):
    alg = make_algebra(m)
    rep = split_standard(alg)
    e, xi_field = rep.f.field, rep.f.field.base
    assert e.gen_name == "zeta" and rep.degree == 2 * m * m
    diagonal = [rep.f.rows[r][r] for r in range(m)]
    assert all(j % 2 == 0 for x in diagonal for j in x.terms)
    # eta = zeta^2 is an m-th root of beta, so F lies in k(xi)(eta), of degree m^2 over k,
    # and read there it is a gauge for the same P_s + lambda I
    assert (e.gen() ** 2) ** m == e.coerce(alg.beta)
    eta_field = KummerField(xi_field, alg.beta, m, "eta", alg.standard_rates[1])
    eta = eta_field.gen()
    entries = [sum((eta ** (j // 2) * c for j, c in x.terms.items()), eta_field.zero()) for x in diagonal]
    f_eta = DiffMatrix.diagonal(eta_field, entries)
    assert verify_gauge(_shifted_p(rep).coerce_to(eta_field), f_eta).ok
    assert xi_field.m * eta_field.m == m * m


@pytest.mark.parametrize("m,radicands", SHIFT_CASES)
def test_a_shift_of_lambda_plus_one_fails_the_gauge_at_entry_0_0_and_keeps_the_isomorphism(m, radicands):
    alg = _shift_algebra(m, radicands)
    rep = split_standard(alg)
    phi = PhiMap(alg, rep.f.field.base)
    # Phi(theta) = I is Phi(1), and inner(1) = 0: the engine checks P_s + (lambda + 1) I,
    # which defines the same d_P, against the same F, whose rows weight no rate to the extra 1
    bad = _diagonal_split(phi, standard_derivation(alg), DiffMatrix.identity(phi.ext_field, m), [[]] * m, [])
    assert bad.f == rep.f and bad.scalar_shift == rep.scalar_shift
    assert not bad.gauge.ok and bad.gauge.failing_entry == (0, 0)
    assert bad.isomorphism.ok and not bad.passed
    assert verify_gauge(_shifted_p(rep, 1).coerce_to(rep.f.field), rep.f) == bad.gauge


@pytest.mark.parametrize("m,radicands", [(m, r) for m in range(2, 10) for r in ("t, t+1", "t^2+1, 3t")])
def test_the_engine_composes_the_kummer_and_exponential_parts_over_d_dt(m, radicands):
    """d_s + inner(theta), theta = (t+1) u + t^2 u^(m-1) ((t+1) u at m = 2): P = P_s + Phi(theta)
    is diagonal, so g takes the P_s part and m exponentials with exponents I and the rates
    Phi(theta)[r][r] take Phi(theta)'s."""
    alg = _shift_algebra(m, radicands)
    k = alg.field
    t, u = k.gen(), alg.u()
    theta = u.scale(t + 1) + (u ** (m - 1)).scale(t * t) if m > 2 else u.scale(t + 1)
    d = standard_derivation(alg) + inner_derivation(theta)
    phi = PhiMap(alg, xi_extension(alg))
    theta_p = phi.apply(theta)
    eye, rates = [[int(r == i) for i in range(m)] for r in range(m)], [theta_p.rows[r][r] for r in range(m)]
    rep = _diagonal_split(phi, d, theta_p, eye, rates)
    assert rep.gauge.ok and rep.gauge.det_nonzero and rep.isomorphism.ok and rep.passed
    assert (rep.degree, rep.transcendence_degree) == (None, m)
    g = "eta" if m % 2 else "zeta"
    assert [x["gen"] for x in rep.extension["tower"]] == ["xi", g] + [f"x{i}" for i in range(m)]
    assert rep.extension["derivation_rules"][0].startswith("delta(xi)")
    assert rep.p == theta_p + phi.p_s == compute_P(d, phi)
    assert rep.scalar_shift == phi.p_s.rows[0][0].base_value()


@pytest.mark.parametrize("m,radicands", [(m, r) for m in range(2, 7) for r in ("t, t+1", "t^2+1, 3t")])
def test_split_standard_coerces_no_rational_and_cancels_associates_on_their_vectors(m, radicands, monkeypatch):
    """Each rational multiple in split_standard (a rate times t_r, m - 1 - r, 1/n or m) scales
    coefficients, so neither RatFuncField.coerce nor CycloField.coerce is called on an int or a
    Fraction; and rho_beta * beta cancels beta against the denominator of rho_beta, its associate,
    on their integer vectors, with no remainder sequence."""
    from diffsym.scalars import polys

    alg = _shift_algebra(m, radicands)
    rational = []

    def recording(coerce):
        def wrapper(field, x):
            if type(x) in (int, Fraction):
                rational.append(x)
            return coerce(field, x)

        return wrapper

    for cls in (RatFuncField, CycloField):
        monkeypatch.setattr(cls, "coerce", recording(cls.coerce))
    assert split_standard(alg).passed
    assert rational == []
    monkeypatch.undo()
    rho, beta = alg.standard_rates[1], alg.beta
    gcds = []
    gcd_ints = polys._gcd_ints
    monkeypatch.setattr(polys, "_gcd_ints", lambda *args: gcds.append(args) or gcd_ints(*args))
    products = rho * beta, beta * rho
    assert gcds == []
    assert products[0] == products[1] == beta.derive() * Fraction(1, m)


def _lattice_rank(alg, rho):
    """The Q-rank of the differences c_r - c_0 of Phi(rho)'s diagonal, by the ``Fraction`` oracle:
    the least transcendence degree of a splitting field of inner(rho) over the zero base."""
    p = make_phi(alg).apply(alg.coerce_elem(rho))
    c = [p.rows[r][r] for r in range(alg.m)]
    return rational_rank(rate_coordinates([x - c[0] for x in c]))


# the lattice rank of u + u^2 and of u + u^3 at m = 3..12 (u + u^3 = u + t at m = 3)
LATTICE_RANKS = {"u + u^2": [2, 3, 4, 4, 6, 6, 6, 8, 10, 6], "u + u^3": [2, 2, 4, 3, 6, 4, 8, 4, 10, 6]}


@pytest.mark.parametrize("m", range(2, 13))
def test_split_inner_takes_one_exponential_per_basis_rate_of_its_lattice(m):
    """trdeg phi(m) = CycloField(m).degree for u and (t+1)u, and the pinned lattice rank for
    u + u^2 and u + u^3, each equal to the oracle's rank, with gauge, det F != 0 and the
    isomorphism; rho = u at m = 2 and 4 keeps exponent rows [I; -I]."""
    alg = make_algebra(m, derivation="zero")
    t, u = alg.field.gen(), alg.u()
    rhos = {"u": u, "(t+1)u": (t + 1) * u}
    if m > 2:
        rhos |= {"u + u^3": u + alg.u(3), "u + u^2": u + alg.u(2)}
    for name, rho in rhos.items():
        rep = split_inner(alg, rho)
        n = LATTICE_RANKS[name][m - 3] if name in LATTICE_RANKS else CycloField(m).degree
        assert _lattice_rank(alg, rho) == n, name
        assert rep.passed and rep.gauge.ok and rep.gauge.det_nonzero and rep.isomorphism.ok, name
        assert rep.transcendence_degree == n and rep.degree is None
        assert [g["gen"] for g in rep.extension["tower"]] == ["xi"] + [f"x{i}" for i in range(n)]
        assert rep.p == make_phi(alg).apply(inner_derivation(rho).theta)
    if m in (2, 4):
        f, n = split_inner(alg, u).f, m // 2
        assert f == DiffMatrix.diagonal(f.field, [f.field.gen(r % n) ** (1 if r < n else -1) for r in range(m)])


@pytest.mark.parametrize("m", range(2, 10))
def test_split_inner_trdeg_is_the_sympy_rank_of_the_rate_coordinates(m, rng):
    """On random rho in k[u], trdeg is sympy's rank of the coordinates of Phi(rho)'s diagonal
    differences, and the engine's basis rates have that rank too: no exponential is redundant."""
    sympy = pytest.importorskip("sympy")
    alg = make_algebra(m, derivation="zero")
    ranks = []
    for _ in range(12):
        rho = random_u_polynomial(alg, rng)
        try:
            rep = split_inner(alg, rho)
        except ValueError:
            continue
        ranks.append(rep.transcendence_degree)
        p = make_phi(alg).apply(alg.coerce_elem(rho))
        c = [p.rows[r][r] for r in range(m)]
        assert rep.passed and rep.gauge.det_nonzero
        assert rep.transcendence_degree == sympy.Matrix(rate_coordinates([x - c[0] for x in c])).rank(), rho
        assert sympy.Matrix(rate_coordinates(rep.f.field.rates)).rank() == rep.transcendence_degree
    assert len(ranks) >= 2, ranks


def test_split_inner_rejects_degenerate():
    alg = make_algebra(2, derivation="zero")
    with pytest.raises(ValueError):
        split_inner(alg, alg.one())  # scalar: no degree-m subfield
    with pytest.raises(ValueError):
        split_inner(alg, alg.v())    # not a polynomial in u
    with pytest.raises(ValueError):
        split_inner(make_algebra(2), alg.u())  # nonzero base derivation


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_split_inner_degree_test_agrees_with_the_minimal_polynomial(m, rng):
    # accepted exactly when rho's minimal polynomial has degree m: 42 rho per m; the tower has
    # one exponential per basis rate of the lattice
    alg = make_algebra(m, derivation="zero")
    rhos = [alg.zero_elem(), alg.scalar(3), alg.scalar(alg.field.gen())]
    rhos += [alg.u(d) for d in range(1, m + 1) if m % d == 0]
    rhos += [random_u_polynomial(alg, rng) for _ in range(42 - len(rhos))]
    accepted = []
    for rho in rhos:
        try:
            rep = split_inner(alg, rho)
        except ValueError as exc:
            assert str(exc) == "rho does not generate a degree-m subfield"
            accepted.append(False)
        else:
            assert rep.passed and rep.transcendence_degree == _lattice_rank(alg, rho)
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
    assert split_inner(alg, rho).passed
    with pytest.raises(ValueError, match="degree-m subfield"):
        split_inner(alg, alg.scalar(t))
    with pytest.raises(AssertionError, match="an elimination ran"):
        minimal_polynomial(rho)  # the oracle eliminates, so the patch is live


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


@pytest.mark.parametrize("m", [2, 3, 5])
def test_a_corrupted_generic_image_fails_the_gauge_at_its_entry(m, rng):
    """delta(x_rs) set to its image plus one generator makes delta^c(F) = PF fail at (r, s) alone,
    and the verdict prints the corrupted image as lhs and sum_l P[r][l] x_ls as rhs."""
    alg = make_algebra(m)
    p = compute_P(random_valid_derivation(alg, rng), make_phi(alg))
    for _ in range(3):
        rep = split_generic(p)
        assert rep.passed
        e = rep.f.field
        r, s = rng.randrange(m), rng.randrange(m)
        image = e.gen_derivative(r * m + s)
        wrong = image + e.gen(rng.randrange(m * m))
        e.set_gen_derivative(r * m + s, wrong)
        verdict = verify_gauge(p.coerce_to(e), rep.f)
        assert not verdict.ok and verdict.det_nonzero and verdict.failing_entry == (r, s)
        assert (verdict.lhs, verdict.rhs) == (scalar_to_str(wrong), scalar_to_str(image))


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
        norm = norm * kummer_from_coeffs(xi_field, dense_kummer_conjugate(gamma, j))
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
    """(report, phi, d, theta_p, exponents, rates): one explicit construction's report and the call it makes to _diagonal_split.

    The inner kinds split inner(rho) over the zero base, rho = u or u + u^2: the lattice's exponent
    rows are read off F's monomials and its basis rates off F's field."""
    if kind in ("eta", "zeta"):
        alg = make_algebra(m)
        phi = PhiMap(alg, xi_extension(alg))
        return split_standard(alg), phi, standard_derivation(alg), DiffMatrix.zero(phi.ext_field, m), [[]] * m, []
    alg = make_algebra(m, derivation="zero")
    rho = alg.u() + alg.u(2) if kind == "u + u^2" else alg.u()
    phi = PhiMap(alg, xi_extension(alg))
    rep = split_inner(alg, rho)
    e = rep.f.field
    # F[r][r] is one monomial prod_i x_i^n_ri, keyed by the pairs (i, n_ri) with n_ri != 0
    keys = [dict(*rep.f.rows[r][r].terms) for r in range(m)]
    exponents = [[key.get(i, 0) for i in range(e.n)] for key in keys]
    rates = [phi.ext_field.coerce(b) for b in e.rates]
    return rep, phi, inner_derivation(rho), phi.apply(rho), exponents, rates


INNER_LATTICES = [("u", 3), ("u", 4), ("u", 6), ("u + u^2", 6)]


@pytest.mark.parametrize("kind,m", [("eta", 3), ("eta", 5), ("zeta", 2), ("zeta", 4), *INNER_LATTICES])
def test_diagonal_split_fails_at_the_row_whose_exponent_is_off_by_one(kind, m):
    """Row r of F times one generator more. For eta and zeta, g's exponent n (m - 1 - r) + 1 in the
    engine's F, checked by verify_gauge against its P_s + lambda I; for the inner splits, entry
    (r, r mod k) of the lattice's exponent rows off by one, passed to the engine with its k basis
    rates. At m = 3 those rows are not +-I (row 1 is x0^-1 x1); at m = 4 they are [I; -I], where
    the lower half's wrong exponent -1 + 1 = 0 leaves F[r][r] = 1."""
    rep, phi, d, theta_p, exponents, rates = _diagonal_inputs(kind, m)
    same = _diagonal_split(phi, d, theta_p, exponents, rates)
    assert same.passed and same.to_json() == rep.to_json()
    assert kind != "u" or m != 3 or exponents == [[1, 0], [-1, 1], [0, -1]]
    # each call builds its own tower, so F is compared across calls by its printed entries
    e = same.f.field
    assert kind not in ("eta", "zeta") or (e.gen_name, e.m) == (kind, (1 if kind == "eta" else 2) * m)
    shifted = same.p if same.scalar_shift is None else _shifted_p(same)
    diagonal = [scalar_to_str(same.f.rows[s][s]) for s in range(m)]
    for r in range(m):
        if kind in ("eta", "zeta"):
            rows = [list(row) for row in same.f.rows]
            rows[r][r] = rows[r][r] * e.gen()
            f = DiffMatrix(e, rows)
            bad = replace(same, f=f, gauge=verify_gauge(shifted.coerce_to(e), f))
            # the isomorphism does not read F: the engine's own verdict is reused on purpose
            assert bad.isomorphism is same.isomorphism
        else:
            wrong = [list(row) for row in exponents]
            wrong[r][r % e.n] += 1
            bad = _diagonal_split(phi, d, theta_p, wrong, rates)
            assert scalar_to_str(bad.f.rows[r][r]) == scalar_to_str(same.f.rows[r][r] * e.gen(r % e.n))
            assert (scalar_to_str(bad.f.rows[r][r]) == "1") == (not any(wrong[r]))
            assert bad.isomorphism.ok
        assert not bad.passed and not bad.gauge.ok
        assert bad.gauge.failing_entry == (r, r)
        assert (bad.gauge.det_nonzero, bad.gauge.det_method) == (True, "diagonal")
        assert [scalar_to_str(bad.f.rows[s][s]) == diagonal[s] for s in range(m)] == [s != r for s in range(m)]


@pytest.mark.parametrize("kind,m", INNER_LATTICES)
def test_diagonal_split_fails_at_the_first_row_that_weights_a_corrupted_basis_rate(kind, m):
    """Basis rate b_i + 1 in place of b_i: F is unchanged, and row r's rate sum_i n_ri b_i is off by
    n_ri, so the gauge fails at the first row whose exponent of x_i is nonzero."""
    rep, phi, d, theta_p, exponents, rates = _diagonal_inputs(kind, m)
    one = phi.ext_field.one()
    for i in range(len(rates)):
        bad = _diagonal_split(phi, d, theta_p, exponents, [b + one if j == i else b for j, b in enumerate(rates)])
        r = next(r for r in range(m) if exponents[r][i])
        assert not bad.passed and not bad.gauge.ok and bad.isomorphism.ok
        assert bad.gauge.failing_entry == (r, r)
        assert [scalar_to_str(bad.f.rows[s][s]) for s in range(m)] == [scalar_to_str(rep.f.rows[s][s]) for s in range(m)]
