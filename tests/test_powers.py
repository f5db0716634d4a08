"""Power detection and irreducibility certificates."""

from fractions import Fraction
from math import gcd, lcm

import pytest

from diffsym.scalars import (
    CycloField,
    Poly,
    RatFuncField,
    ReducibleRadicandError,
    cyclo_nth_root,
    is_prime,
    kummer_vahlen_certify,
    mth_power_up_to_constant,
    rational_nth_root,
)
from diffsym import SymbolAlgebra, split_standard
from diffsym.cli import main
from diffsym.deriv import constants_standard
from diffsym.errors import SelfCheckError
from diffsym.scalars import powers, valuations
from diffsym.scalars.powers import _prime_factors, certify_power_free_over_kummer, echelon, subgroup_order
from generators import sharing_radicands
from oracles import (
    coprime_valuations,
    dividing_power_free_over_kummer,
    enumerated_subgroup_order,
    quotient_mth_power,
    rational_rank,
)


@pytest.fixture
def k():
    return RatFuncField(CycloField(3), "t")


@pytest.fixture
def no_search(monkeypatch):
    """Make the bounded-height root search fail, so a passing test decided exactly."""
    import diffsym.scalars.powers as powers

    def fail(c, k):
        raise AssertionError("bounded search used")

    monkeypatch.setattr(powers, "cyclo_nth_root", fail)


def test_rational_nth_root():
    assert rational_nth_root(Fraction(8, 27), 3) == Fraction(2, 3)
    assert rational_nth_root(Fraction(-8), 3) == -2
    assert rational_nth_root(Fraction(-4), 2) is None
    assert rational_nth_root(Fraction(5), 2) is None


def test_cyclo_nth_root_nonrational():
    f = CycloField(4)
    w = f.omega()
    # -1 = w^2 even though -1 has no rational square root
    r = cyclo_nth_root(f.from_rational(-1), 2)
    assert r is not None and r * r == f.from_rational(-1)
    assert cyclo_nth_root(f.from_rational(2), 2) is None


def test_power_detection_roundtrip(k, rng):
    t = k.gen()
    for m in (2, 3, 5):
        for _ in range(10):
            h = (t + rng.randint(-3, 3)) ** rng.randint(1, 2) / (t**2 + rng.randint(1, 4))
            c = k.cyclo.from_rational(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
            f = h**m * k.coerce(c)
            res = mth_power_up_to_constant(f, m)
            assert res is not None
            c2, h2 = res
            assert f == h2**m * k.coerce(c2)


def test_power_detection_rejects(k):
    t = k.gen()
    assert mth_power_up_to_constant(t**2 * (t + 1) ** 3, 3) is None
    assert mth_power_up_to_constant(t, 2) is None
    with pytest.raises(ValueError):
        mth_power_up_to_constant(k.zero(), 2)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_power_detection_agrees_with_the_quotient_check(m, rng):
    """f = c prod (t - r)^e / (t - s)^e' with multiplicities up to m, tested for n-th powers at n = 2, 3 and m."""
    k = RatFuncField(CycloField(m), "t")
    t = k.gen()
    kinds = {"power": 0, "not a power": 0}
    for _ in range(4):
        roots = rng.sample(range(-4, 5), 3)
        f = k.coerce(rng.choice([1, 2, -3, 5])) * k.omega() ** rng.randint(0, m - 1)
        for r in roots[:2]:
            f = f * (t - r) ** rng.randint(1, m)
        f = f / (t - roots[2]) ** rng.choice([0, 1, m])
        for n in sorted({2, 3, m}):
            for g in (f, f**n):
                got = mth_power_up_to_constant(g, n)
                assert got == quotient_mth_power(g, n)
                kinds["not a power" if got is None else "power"] += 1
    assert min(kinds.values()) >= 3, kinds


def test_a_corrupted_decomposition_is_a_self_check_failure(monkeypatch, capsys):
    decompose = powers.squarefree_decompose
    # every multiplicity doubled: t + 1 reads as (t + 1)^2, a square it is not
    monkeypatch.setattr(powers, "squarefree_decompose", lambda p: [(q, 2 * j) for q, j in decompose(p)])
    k = RatFuncField(CycloField(2), "t")
    with pytest.raises(SelfCheckError):
        mth_power_up_to_constant(k.gen() + 1, 2)
    # the reducible branch checks its verdict before deciding the constant
    with pytest.raises(SelfCheckError):
        kummer_vahlen_certify(k.gen() ** 2 * 4, 2)
    for argv in (
        ["power-detect", "--m", "2", "--f", "t+1"],
        ["deriv", "constants", "--standard", "--m", "2", "--alpha", "t", "--beta", "t+1"],
        # the hypothesis refusal reads alpha = t as a square: checked, not trusted
        ["split", "maximal", "--m", "2", "--alpha", "t", "--beta", "t+1", "--nu", "t"],
    ):
        assert main(argv) == 3, argv
        assert capsys.readouterr().err == "internal self-check failed: power detection produced a non-constant cofactor\n"


def test_valuations_count_multiplicities(k):
    t = k.gen()
    basis, (v,) = valuations((t + 1) ** 4 * t / (t + 2))
    assert dict(zip(basis, v)) == {(t + 1).num: 4, t.num: 1, (t + 2).num: -1}
    # one basis for all the inputs: t^2 - 1 splits against t + 1
    basis, vectors = valuations(t + 2, t + 3, (t * t - 1) * 5, 1 / (t + 1))
    assert set(basis) == {x.num for x in (t + 2, t + 3, t - 1, t + 1)}
    want = [{t + 2: 1}, {t + 3: 1}, {t - 1: 1, t + 1: 1}, {t + 1: -1}]
    assert [{b: e for b, e in zip(basis, v) if e} for v in vectors] == [{x.num: e for x, e in w.items()} for w in want]
    assert valuations(k.coerce(7)) == ([], [[]])
    with pytest.raises(ValueError):
        valuations(t, k.zero())


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_valuations_refine_as_the_coprime_basis_oracle(m, rng):
    """The vectors carried through the factor refinement give the coprime basis oracle's basis, in its order,
    and its vectors, on 2 and 3 radicands with shared, repeated and non-rational roots."""
    k = RatFuncField(CycloField(m), "t")
    t, w = k.gen(), k.omega()
    blocks = [t + w, t - w * 2, t * t + w]
    kinds = {"shared": 0, "repeated": 0, "non-rational": 0}
    for _ in range(15):
        fs = [f * rng.choice(blocks) ** rng.choice([-1, 0, 1, 2]) for f in sharing_radicands(k, m, rng)]
        for n in (2, 3):
            basis, vectors = valuations(*fs[:n])
            assert (basis, vectors) == coprime_valuations(*fs[:n]), fs[:n]
            kinds["shared"] += any(sum(1 for v in vectors if v[i]) > 1 for i in range(len(basis)))
            kinds["repeated"] += any(abs(e) > 1 for v in vectors for e in v)
            kinds["non-rational"] += any(not c.is_rational() for b in basis for c in b.coeffs)
    assert kinds["shared"] > 5 and kinds["repeated"] > 5, kinds
    assert m < 3 or kinds["non-rational"] > 5, kinds


def _decompositions(monkeypatch):
    """Record every non-constant polynomial that power detection decomposes."""
    seen = []
    decompose = powers.squarefree_decompose

    def counted(p):
        if p.degree > 0:
            seen.append(p)
        return decompose(p)

    monkeypatch.setattr(powers, "squarefree_decompose", counted)
    return seen


@pytest.mark.parametrize("m", [2, 3, 5, 6, 12])
def test_constants_standard_decomposes_each_radicand_once(m, monkeypatch):
    """One decomposition of alpha's and of beta's numerator at every m, where a quotient per (i, j) took 3 to 143."""
    k = RatFuncField(CycloField(m), "t")
    t = k.gen()
    alg = SymbolAlgebra(k, t**2 * (t + 1), t + 1, m)
    seen = _decompositions(monkeypatch)
    constants_standard(alg)
    assert seen == [alg.alpha.num, alg.beta.num]


@pytest.mark.parametrize("m", [2, 3, 4, 6, 12])
def test_split_standard_decomposes_alpha_twice(m, monkeypatch):
    """Once for z^m - alpha and once for the tower over k(xi), also at m = 6 and 12 with two primes p | m."""
    k = RatFuncField(CycloField(m), "t")
    t = k.gen()
    alg = SymbolAlgebra(k, t * (t + 3), t + 5, m)
    seen = _decompositions(monkeypatch)
    split_standard(alg)
    assert sum(p == alg.alpha.num for p in seen) == 2


def test_kummer_vahlen_accepts(k):
    t = k.gen()
    kummer_vahlen_certify(t, 3)
    kummer_vahlen_certify(t + 1, 3)
    kummer_vahlen_certify(t**2, 3)  # multiplicity 2, not divisible by 3


def test_kummer_vahlen_rejects(k):
    t = k.gen()
    with pytest.raises(ReducibleRadicandError):
        kummer_vahlen_certify(t**3, 3)
    with pytest.raises(ReducibleRadicandError):
        kummer_vahlen_certify(t**2 * 4, 2)
    k4 = RatFuncField(CycloField(4), "t")
    with pytest.raises(ReducibleRadicandError):
        # -4 t^4 lies in -4 k^4, so z^4 + 4t^4 is reducible
        kummer_vahlen_certify(k4.gen() ** 4 * (-4), 4)


def test_tower_certificate(k):
    t = k.gen()
    assert certify_power_free_over_kummer([(t, 3)], 3, t + 1, 3) == 9
    assert certify_power_free_over_kummer([(t, 3), (t + 1, 3)], 9, t + 2, 3) == 27
    with pytest.raises(ReducibleRadicandError, match=r"z\^2 - a irreducible over the Kummer tower \(degree 1 of 2"):
        # t^2 is a square over kbar(t): the step adds nothing
        certify_power_free_over_kummer([(t, 2)], 2, t**2, 2)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_tower_certificate_certifies_all_that_the_division_oracle_certifies(m, rng):
    """Every pair that the former ramification certificate certifies is certified; each step's degree over
    kbar(t), certified or refused, is the order of the subgroup that the oracle's valuation rows generate."""
    k = RatFuncField(CycloField(m), "t")
    kinds = {"both": 0, "new": 0, "neither": 0}
    for _ in range(16):
        alpha, beta, _nu = sharing_radicands(k, m, rng)
        _basis, (va, vb) = coprime_valuations(alpha, beta)
        degree = m // gcd(m, *va)
        for big_m in sorted({2, 3, 4, m, 2 * m}):
            n = lcm(m, big_m)
            order = enumerated_subgroup_order([[n // m * x for x in va], [n // big_m * x for x in vb]], n)
            if order == degree * big_m:
                assert certify_power_free_over_kummer([(alpha, m)], degree, beta, big_m) == order
                kinds["both" if dividing_power_free_over_kummer(alpha, m, beta, big_m) else "new"] += 1
            else:
                assert not dividing_power_free_over_kummer(alpha, m, beta, big_m)
                with pytest.raises(ReducibleRadicandError, match=f"degree {order // degree} of {big_m} "):
                    certify_power_free_over_kummer([(alpha, m)], degree, beta, big_m)
                kinds["neither"] += 1
    assert kinds["both"] and kinds["neither"], kinds


def test_subgroup_order_counts_the_enumerated_subgroup(rng):
    for _ in range(200):
        n, r, width = rng.randint(1, 12), rng.randint(0, 3), rng.randint(1, 4)
        rows = [[rng.randint(-n, n) * rng.choice([0, 1, 2, 3]) for _ in range(width)] for _ in range(r)]
        assert subgroup_order(rows, n) == enumerated_subgroup_order(rows, n), (rows, n)


def test_echelon_returns_a_unimodular_transform_to_echelon_form_and_its_inverse(rng):
    """Random integer matrices of 0-6 rows and 0-5 columns, negative entries, zero rows and zero
    columns: u rows is in echelon form with its k nonzero rows first, their pivot columns strictly
    increasing, u_inv u = u u_inv = I, and k is the rank over Q."""
    shapes = set()
    for _ in range(300):
        n, width = rng.randint(0, 6), rng.randint(0, 5)
        rows = [[rng.randint(-9, 9) * rng.choice([0, 1, 1]) for _ in range(width)] for _ in range(n)]
        for j in rng.sample(range(width), rng.randint(0, width)) if rng.random() < 0.3 else ():
            for row in rows:
                row[j] = 0
        if n and rng.random() < 0.3:
            rows[rng.randrange(n)] = [0] * width
        k, u, u_inv = echelon(rows)
        ech = [[sum(x * row[j] for x, row in zip(u[i], rows)) for j in range(width)] for i in range(n)]
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        assert [[sum(x * row[j] for x, row in zip(u_inv[i], u)) for j in range(n)] for i in range(n)] == eye
        assert [[sum(x * row[j] for x, row in zip(u[i], u_inv)) for j in range(n)] for i in range(n)] == eye
        assert not any(any(row) for row in ech[k:]), (rows, ech)
        pivots = [next(j for j, x in enumerate(row) if x) for row in ech[:k]]
        assert all(a < b for a, b in zip(pivots, pivots[1:])), (rows, ech)
        assert k == rational_rank(rows)
        shapes.add((n == 0, width == 0, 0 < k < n))
    assert len(shapes) >= 4, shapes


def test_int_nth_root_is_exact_for_large_integers():
    from diffsym.scalars.powers import _int_nth_root

    assert _int_nth_root(10**400, 2) == 10**200
    assert _int_nth_root(10**400, 4) == 10**100
    assert _int_nth_root((10**20 + 1) ** 3, 3) == 10**20 + 1
    assert _int_nth_root((10**20 + 1) ** 3 + 1, 3) is None
    assert _int_nth_root(10**401, 2) is None
    assert _int_nth_root(2**64, 64) == 2
    for n in (2, 3, 5, 7):
        for r in (0, 1, 2, 3, 10**30 + 7):
            assert _int_nth_root(r**n, n) == r


def test_kummer_vahlen_rejects_a_cube_with_a_large_constant(k):
    t = k.gen()
    with pytest.raises(ReducibleRadicandError):
        # z^3 - ((10^20+1) t)^3 has the root (10^20+1) t
        kummer_vahlen_certify((t * (10**20 + 1)) ** 3, 3)


def test_kummer_vahlen_rejects_squares_of_gauss_sums():
    # -7 = s^2 for the Gauss sum s in Q(w_7), and -3 = (1 + 2w)^2 in Q(w_3)
    k14 = RatFuncField(CycloField(14), "t")
    t = k14.gen()
    for m in (2, 14):
        with pytest.raises(ReducibleRadicandError):
            kummer_vahlen_certify(t**2 * (-7), m)
        kummer_vahlen_certify(t**2 * 5, m)  # 5 is no square in Q(w_14)
    k9 = RatFuncField(CycloField(9), "t")
    with pytest.raises(ReducibleRadicandError):
        kummer_vahlen_certify(k9.gen() ** 2 * (-3), 2)


def test_rational_powers_in_cyclotomic_fields():
    from diffsym.scalars.powers import rational_is_power_in_cyclotomic as is_power

    squares = [(-1, 4), (2, 8), (-2, 8), (5, 5), (-3, 3), (3, 12), (-7, 7), (7, 28),
               (13, 13), (-11, 11), (Fraction(-28, 9), 14), (-15, 15), (4, 1), (Fraction(9, 4), 3)]
    non_squares = [(-1, 3), (2, 4), (3, 3), (7, 7), (-7, 4), (5, 12), (-1, 2), (2, 1), (-15, 5)]
    for q, n in squares:
        assert is_power(Fraction(q), 2, n), (q, n)
    for q, n in non_squares:
        assert not is_power(Fraction(q), 2, n), (q, n)
    # odd p: Q(q^(1/p)) is abelian only for a rational p-th power
    assert is_power(Fraction(8), 3, 9) and is_power(Fraction(-1, 27), 3, 3)
    assert not is_power(Fraction(2), 3, 9) and not is_power(Fraction(3), 5, 5)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
def test_rational_squares_agree_with_the_bounded_search(n):
    # where phi(n) <= 4 the search finds the square roots of small squarefree integers
    from diffsym.scalars.powers import rational_is_power_in_cyclotomic as is_power

    f = CycloField(n)
    for q in (-6, -5, -3, -2, -1, 2, 3, 5, 6):
        found = cyclo_nth_root(f.from_rational(q), 2) is not None
        assert is_power(Fraction(q), 2, n) == found, q


def test_kummer_vahlen_decides_rational_times_root_of_unity(no_search):
    # over Q(w_5), w^k = (w^(3k))^2, so q w^k is a square iff q is: exact, no search
    k5 = RatFuncField(CycloField(5), "t")
    t, w = k5.gen(), k5.coerce(k5.cyclo.omega())
    kummer_vahlen_certify(w * t**2 * 2, 2)
    kummer_vahlen_certify(w**4 * t**2 * 3, 2)  # w^4 = -1 - w - w^2 - w^3
    for square in (w * t**2 * 4, w**4 * t**2 * 5):  # 4w = (2w^3)^2; 5 = sqrt(5)^2 in Q(w_5)
        with pytest.raises(ReducibleRadicandError):
            kummer_vahlen_certify(square, 2)


def test_kummer_vahlen_rejects_minus_four_times_a_fourth_power_over_q_w3():
    # z^4 + 4b^4 = (z^2 + 2bz + 2b^2)(z^2 - 2bz + 2b^2) with b = 5wt; 5w lies beyond the search height
    from diffsym.scalars import KummerField

    k3 = RatFuncField(CycloField(3), "t")
    t, w = k3.gen(), k3.coerce(k3.cyclo.omega())
    alpha = w * t**4 * (-2500)
    b = w * t * 5
    factors = Poly(k3, [b**2 * 2, b * 2, 1]) * Poly(k3, [b**2 * 2, b * -2, 1])
    assert factors == Poly(k3, [-alpha, 0, 0, 0, 1])
    with pytest.raises(ReducibleRadicandError, match="-4 k"):
        kummer_vahlen_certify(alpha, 4)
    with pytest.raises(ReducibleRadicandError):
        KummerField(k3, alpha, 4)


def test_kummer_vahlen_decides_rational_fourth_powers_for_4_prime_to_n(no_search):
    # over Q(w_3): e^4 = q forces e^2 = +-sqrt(q); -1, 2, -2 are no squares there, -3 is
    k3 = RatFuncField(CycloField(3), "t")
    t = k3.gen()
    for q in (4, 2, -3):  # alpha = -4 q t^4 with q no 4th power in Q(w_3)
        kummer_vahlen_certify(t**4 * (-4 * q), 4)
    with pytest.raises(ReducibleRadicandError, match="-4 k"):
        kummer_vahlen_certify(t**4 * (-4 * 81), 4)  # 81 = 3^4


@pytest.mark.parametrize("n, p, a, norm", [(5, 2, 2, 11), (7, 2, 2, 43), (8, 2, 2, 17), (5, 3, 3, 61)])
def test_kummer_vahlen_refutes_powers_by_the_norm(n, p, a, norm, no_search):
    k = RatFuncField(CycloField(n), "t")
    t, w = k.gen(), k.coerce(k.cyclo.omega())
    c = w + a
    assert c.constant_value().norm() == norm
    kummer_vahlen_certify(c * t**p, p)


def test_kummer_vahlen_cannot_certify_when_the_norm_is_a_power():
    # (2 + w)(2 + w^4) has norm 11^2 over Q(w_5) yet is no square, and -20 t^4 leaves -20 / -4 = 5, a square
    # there whose norm 5^4 is a 4th power: no exact test decides either, alone or for a Kummer field
    from diffsym.scalars import KummerField

    k5 = RatFuncField(CycloField(5), "t")
    t, w = k5.gen(), k5.coerce(k5.cyclo.omega())
    c = (w + 2) * (w**4 + 2)
    assert c.constant_value().norm() == 121
    for radicand, p in ((c * t**2, 2), (t**4 * -20, 4)):
        with pytest.raises(ReducibleRadicandError, match="cannot certify"):
            kummer_vahlen_certify(radicand, p)
        with pytest.raises(ReducibleRadicandError, match="cannot certify"):
            KummerField(k5, radicand, p)


def test_is_prime_and_prime_factors_agree_with_trial_division():
    def divisors(n):
        return [d for d in range(2, n + 1) if n % d == 0]

    for n in range(-5, 400):
        primes = [d for d in divisors(n) if divisors(d) == [d]]
        assert _prime_factors(n) == primes
        assert is_prime(n) == (n >= 2 and divisors(n) == [n])
