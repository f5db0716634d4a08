"""Acceptance suite: one test per shipped guarantee, exact arithmetic throughout.

Every check is at zero tolerance; random cases are seeded and the counts are
part of the contract.  Run with -v to get one pass/fail line per criterion.
"""

import random
from fractions import Fraction

import pytest

from diffsym import SymbolAlgebra, decompose, inner_derivation, split_standard, standard_derivation
from diffsym.cli import main as cli_main
from diffsym.deriv import Derivation, constants_inner, constants_standard, validate
from diffsym.matdiff import DiffMatrix, prop44_constants, prop44_matrix
from diffsym.scalars import (
    CycloField,
    KummerField,
    RatFuncField,
    rational_ode_solve,
)
from diffsym.split import (
    PhiMap,
    compute_P,
    maximal_subfield_necessary,
    split_generic,
    split_inner,
    t_r_values,
    verify_diff_isomorphism,
)
from generators import random_element, random_trace_zero, random_valid_derivation
from oracles import _proportional, brute_force_ode_oracle, compute_w, dense_phi, entrywise_P, full_basis_verdict

SEED = 20260823


def make_algebra(m, derivation="dt", alpha=None, beta=None):
    k = RatFuncField(CycloField(m), "t", derivation)
    t = k.gen()
    return SymbolAlgebra(k, alpha if alpha is not None else t, beta if beta is not None else t + k.one(), m)


def make_phi(alg):
    return PhiMap(alg, KummerField(alg.field, alg.alpha, alg.m, "xi"))


def test_criterion_01_tr_identity():
    # sum_{i=1}^{m-1} 1/(w^{ri} (1 - w^i)) = (m-1)/2 - r, computed in Q(w)
    for m in (2, 3, 4, 5, 7):
        f = CycloField(m)
        w = f.omega()
        for r in range(m):
            total = f.zero()
            for i in range(1, m):
                total = total + (w ** (r * i) * (f.one() - w**i)).inv()
            expected = Fraction(m - 1, 2) - r
            assert total == f.from_rational(expected)
            assert t_r_values(m)[r] == expected


def test_criterion_02_phi_relations():
    for m in (2, 3, 5):
        alg = make_algebra(m)
        phi = make_phi(alg)
        e = phi.ext_field
        alpha = e.coerce(alg.alpha)
        beta = e.coerce(alg.beta)
        omega = e.coerce(alg.omega)
        ident = DiffMatrix.identity(e, m)
        assert phi.a_mat**m == ident.scale(alpha)
        assert phi.b_mat**m == ident.scale(beta)
        assert phi.b_mat * phi.a_mat == (phi.a_mat * phi.b_mat).scale(omega)


def test_criterion_03_derivation_characterization():
    rng = random.Random(SEED)
    # the standard data validates
    for m in (2, 3, 4):
        ds = standard_derivation(make_algebra(m))
        v = validate(ds.algebra, ds.du, ds.dv)
        assert v.ok and not v.failing

    # six single-condition perturbations, each rejected with the right tag
    alg3 = make_algebra(3)
    d = random_valid_derivation(alg3, rng)
    one = alg3.field.one()

    def bump(elem, i, j):
        g = [list(r) for r in elem.grid]
        g[i][j] = g[i][j] + one
        return alg3.from_grid(g)

    cases = [
        (2, 0, "du", "A"),
        (0, 2, "dv", "B"),
        (2, 0, "dv", "REL1"),
        (2, 2, "dv", "REL2"),
        (1, 0, "dv", "REL3"),
        (1, 2, "dv", "REL4"),
    ]
    for i, j, which, tag in cases:
        du, dv = d.du, d.dv
        if which == "du":
            du = bump(du, i, j)
        else:
            dv = bump(dv, i, j)
        verdict = validate(alg3, du, dv)
        assert not verdict.ok and tag in verdict.failing

    # 50 seeded random valid derivations, Leibniz on 100 pairs each, and
    # decompose inverts theta |-> d_s + inner(theta) on the trace-zero part
    for m in (2, 3):
        alg = make_algebra(m)
        for _ in range(25):
            theta = random_trace_zero(alg, rng)
            d = standard_derivation(alg) + inner_derivation(theta)
            assert validate(alg, d.du, d.dv).ok
            assert decompose(d) == theta
            assert decompose(Derivation(alg, d.du, d.dv)) == theta
            for _ in range(100):
                a = random_element(alg, rng, entries=1)
                b = random_element(alg, rng, entries=1)
                assert d.apply(a * b) == a * d.apply(b) + d.apply(a) * b


def test_criterion_04_trace_stability():
    rng = random.Random(SEED)
    for m in (2, 3):
        alg = make_algebra(m)
        for _ in range(50):
            d = random_valid_derivation(alg, rng)
            a = random_element(alg, rng)
            assert d.apply(a).trace() == a.trace().derive()


def test_criterion_05_constants_equal_centralizer():
    rng = random.Random(SEED)
    for m in (2, 3, 5):
        alg = make_algebra(m, derivation="zero")
        basis = constants_inner(alg.u())
        assert len(basis) == m
        # every basis element lies in k[u], so the space is span{1, ..., u^{m-1}}
        for x in basis:
            assert all(x.grid[i][j].is_zero() for i in range(m) for j in range(1, m))
    for m in (2, 3):
        alg = make_algebra(m, derivation="zero")
        for _ in range(10):
            theta = random_trace_zero(alg, rng)
            assert len(constants_inner(theta)) >= m


def test_criterion_06_corner_pole_constants():
    for m in (2, 3, 4):
        k = RatFuncField(CycloField(m), "t")
        p = prop44_matrix(k, list(range(m)), k.one() / k.gen())
        basis = prop44_constants(p)
        assert len(basis) == m - 1
        for x in basis:
            assert all(x.rows[r][c].is_zero() for r in range(m) for c in range(m) if r != c)
    # m = 2: the constants are exactly the scalars
    k = RatFuncField(CycloField(2), "t")
    basis = prop44_constants(prop44_matrix(k, [0, 1], k.one() / k.gen()))
    assert len(basis) == 1
    x = basis[0]
    assert x.rows[0][0] == x.rows[1][1] and not x.rows[0][0].is_zero()


def test_criterion_07_new_constant_witnesses():
    # squarefree coprime pair: no constants beyond the base field
    assert constants_standard(make_algebra(3)) == []
    # (c f, f^r) with m = 3, f = t, c = 2, r = 1: witness at (r, m-1) = (1, 2)
    k = RatFuncField(CycloField(3), "t")
    t = k.gen()
    alg = SymbolAlgebra(k, t * 2, t, 3)
    witnesses = constants_standard(alg)
    pairs = [(w.i, w.j) for w in witnesses]
    assert (1, 2) in pairs
    d = standard_derivation(alg)
    for w in witnesses:
        assert d.apply(alg.monomial(w.i, w.j, w.h)).is_zero()


def test_criterion_08_standard_splitting_field():
    for m, degree in ((3, 9), (2, 8), (4, 32)):
        rep = split_standard(make_algebra(m))
        assert rep.gauge.ok and rep.gauge.det_nonzero
        assert rep.isomorphism.ok
        assert rep.degree == degree
        assert rep.transcendence_degree == 0


def test_criterion_09_inner_splitting():
    # rho = u: trdeg phi(m), the Q-rank of the diagonal w^(-r) xi of P = Phi(u), which is the
    # degree of Q(w)
    for m in (2, 3, 4, 5, 6, 7, 8):
        alg = make_algebra(m, derivation="zero")
        rep = split_inner(alg, alg.u())
        assert rep.passed and rep.gauge.det_nonzero
        assert rep.transcendence_degree == CycloField(m).degree
        phi = make_phi(alg)
        assert rep.p == phi.apply(alg.coerce_elem(alg.u()))


def test_criterion_10_generic_splitting():
    rng = random.Random(SEED)
    alg = make_algebra(2)
    phi = make_phi(alg)
    d = random_valid_derivation(alg, rng)
    p = compute_P(d, phi)
    rep = split_generic(p)
    assert rep.passed
    assert rep.gauge.det_nonzero
    assert rep.transcendence_degree == 4


def test_criterion_11_closed_form_cross_check():
    rng = random.Random(SEED)
    for m in (2, 3):
        alg = make_algebra(m)
        phi = make_phi(alg)
        for _ in range(10):
            d = random_valid_derivation(alg, rng)
            p = compute_P(d, phi)
            # production P = Phi(theta) + P_s against both reference forms of Phi(theta - w)
            theta = decompose(d)
            assert p == entrywise_P(theta, phi)
            assert p == dense_phi(phi, phi.ext_algebra.coerce_elem(theta) - compute_w(phi))
            verdict = verify_diff_isomorphism(phi, d, p)
            assert verdict.ok
            assert verdict == full_basis_verdict(phi, d, p)


def test_isomorphism_check_agrees_with_full_basis_oracle():
    # the reports of criteria 8, 9 and 14, each re-checked on all m^2 basis elements
    cases = []
    for m in (3, 2, 4):
        alg = make_algebra(m)
        cases.append((alg, standard_derivation(alg), split_standard(alg)))
    for m in (2, 3, 4):
        alg = make_algebra(m, derivation="zero")
        cases.append((alg, inner_derivation(alg.u()), split_inner(alg, alg.u())))
    # exponent rows I at even m
    alg = make_algebra(2, derivation="zero")
    rho = alg.u() + alg.u(2)
    cases.append((alg, inner_derivation(rho), split_inner(alg, rho)))
    for alg, d, rep in cases:
        assert rep.isomorphism.ok
        assert rep.isomorphism == full_basis_verdict(make_phi(alg), d, rep.p)


def test_criterion_12_maximal_subfield_refutations():
    alg = make_algebra(3)
    t = alg.field.gen()
    one = alg.field.one()
    for a in range(3):
        for b in range(3):
            if a == 0 and b == 0:
                continue
            nu = t**a * (t + one) ** b
            assert maximal_subfield_necessary(alg, nu).refuted
            code = cli_main([
                "split", "maximal", "--m", "3", "--alpha", "t", "--beta", "t+1",
                "--nu", f"t^{a}*(t+1)^{b}",
            ])
            assert code == 1


def _random_ratfunc(k, rng, num_deg, den_deg):
    t = k.gen()
    num = k.zero()
    while num.is_zero():
        num = sum((t**i * rng.randint(-4, 4) for i in range(num_deg + 1)), k.zero())
    den = k.zero()
    while den.is_zero() or den.degree() < 1:
        den = sum((t**i * rng.randint(-3, 3) for i in range(den_deg + 1)), k.zero())
    return num / den


def test_criterion_13_ode_oracle_agreement(rng):
    k = RatFuncField(CycloField(2), "t")
    checked = 0
    zero_mu = 0
    for _ in range(50):
        mu = k.cyclo.from_rational(rng.randint(0, 4))
        if rng.randrange(3) == 0:
            x = _random_ratfunc(k, rng, num_deg=2, den_deg=2)
            g = x.derive() + x * k.coerce(mu)
        else:
            g = _random_ratfunc(k, rng, num_deg=3, den_deg=rng.randint(1, 4))
        sol = rational_ode_solve(mu, g)
        oracle = brute_force_ode_oracle(mu, g, degree_bound=8)
        assert sol.has_solution == oracle.has_solution
        # the ansatz kernel holds no solution beyond the closed form
        assert oracle.homogeneous == sol.homogeneous
        if sol.has_solution:
            assert sol.particular.derive() + sol.particular * k.coerce(mu) == g
            diff = sol.particular - oracle.particular
            assert diff.is_zero() or any(_proportional(diff, h) for h in sol.homogeneous)
        checked += 1
        zero_mu += mu.is_zero()
    assert checked == 50
    assert 0 < zero_mu < 50


def test_criterion_14_quaternion_regression():
    alg = make_algebra(2)
    k = alg.field
    ds = standard_derivation(alg)
    # d_s(u) = delta(alpha)/(2 alpha) u, d_s(v) = delta(beta)/(2 beta) v
    assert ds.du == alg.u().scale(alg.alpha.derive() / (alg.alpha * 2))
    assert ds.dv == alg.v().scale(alg.beta.derive() / (alg.beta * 2))
    # every derivation is d_s + inner(theta) with theta unique and trace zero
    theta = alg.monomial(1, 1, k.one() / k.gen())
    d = ds + inner_derivation(theta)
    assert validate(alg, d.du, d.dv).ok
    assert decompose(d) == theta
    assert decompose(Derivation(alg, d.du, d.dv)) == theta
    assert decompose(Derivation(alg, ds.du, ds.dv)).is_zero()
    # the standard splitting field has degree 2 m^2 = 8; its gauge diag(z^2, 1) is z times the
    # paper's diag(z, 1/z), for P_s shifted by lambda = (1/2) delta(beta)/(2 beta) = 1/(4 (t + 1))
    rep = split_standard(alg)
    assert rep.passed
    assert rep.degree == 8
    e = rep.f.field
    zeta = e.gen()
    assert rep.f == DiffMatrix.diagonal(e, [zeta**2, 1])
    assert rep.scalar_shift == alg.beta.derive() / (alg.beta * 4) == k.one() / (k.gen() * 4 + 4)
    assert rep.p == DiffMatrix.diagonal(rep.p.field, [rep.scalar_shift, -rep.scalar_shift])
