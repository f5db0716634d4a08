"""Kummer extensions and the differential polynomial rings above them."""

import pytest

from diffsym import inner_derivation, standard_derivation
from diffsym.errors import SelfCheckError
from diffsym.parser import parse_scalar, scalar_to_str
from diffsym.scalars import (
    CycloField,
    KummerField,
    MonomialDiffField,
    PolyDiffField,
    RatFuncField,
    ReducibleRadicandError,
)
from diffsym.scalars.kummer import KummerElem
from diffsym.split import PhiMap, compute_P, split_generic
from diffsym.symalg import SymbolAlgebra
from generators import random_trace_zero
from oracles import (
    dense_kummer_add,
    dense_kummer_conjugate,
    dense_kummer_derive,
    dense_kummer_inv,
    dense_kummer_mul,
    dense_kummer_neg,
    dense_exponents,
    dense_polydiff_mul,
    dense_polydiff_str,
    kummer_coeffs,
    kummer_from_coeffs,
    kummer_rule_by_power,
    polydiff_derive,
    polydiff_from_dense,
)


@pytest.fixture
def k():
    return RatFuncField(CycloField(3), "t")


def test_generator_relation(k):
    e = KummerField(k, k.gen(), 3, "xi")
    xi = e.gen()
    assert xi**3 == e.coerce(k.gen())
    assert xi**4 == xi * e.coerce(k.gen())


def test_reducible_radicand_rejected(k):
    with pytest.raises(ReducibleRadicandError):
        KummerField(k, k.gen() ** 3, 3, "xi")


def test_inverse_and_division(k, rng):
    e = KummerField(k, k.gen(), 3, "xi")
    xi = e.gen()
    for _ in range(10):
        x = e.coerce(rng.randint(1, 4)) + xi * rng.randint(-3, 3) + xi * xi * rng.randint(-3, 3)
        if x.is_zero():
            continue
        assert x * x.inv() == e.one()


def test_derivation_rule(k):
    e = KummerField(k, k.gen(), 3, "xi")
    xi = e.gen()
    # delta(xi) = delta(t)/(3t) xi
    assert xi.derive() == xi * e.coerce(k.one() / (k.gen() * 3))
    # Leibniz on xi^2
    assert (xi * xi).derive() == xi.derive() * xi + xi * xi.derive()


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_derivation_rule_agrees_with_the_power_oracle(m, rng):
    """m rate alpha = delta(alpha) decides what m xi^(m-1) delta(xi) = delta(alpha) does, down a two-step tower."""
    k = RatFuncField(CycloField(m), "t")
    t = k.gen()
    r1, r2 = rng.sample(range(-4, 5), 2)
    xi_field = KummerField(k, (t - r1) * rng.choice([1, 2, -3]), m, "xi")
    eta_field = KummerField(xi_field, t - r2, m, "eta")
    for field in (xi_field, eta_field):
        assert kummer_rule_by_power(field, field.gen_rate)
        for wrong in (field.gen_rate * 2, field.gen_rate + field.base.one()):
            assert not kummer_rule_by_power(field, wrong)
            with pytest.raises(SelfCheckError, match="Kummer derivation rule"):
                KummerField(field.base, field.alpha, m, field.gen_name, wrong)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_the_derivation_rule_is_cross_multiplied_in_the_bottom_field(m, rng, monkeypatch):
    """m rate alpha = delta(alpha) is checked as m p r v = u q s on the parts of rate = p/q,
    alpha = r/s and delta(alpha) = u/v: no rational function product and no gcd, at depth 1 (xi over k)
    and 2 (eta over k(xi)). A wrong rate (2 rate, rate + 1, and at depth 2 rate + xi, which does not
    lie in k) still raises SelfCheckError."""
    from diffsym.scalars import polys, ratfunc
    from diffsym.scalars.ratfunc import RatFunc

    k = RatFuncField(CycloField(m), "t")
    t = k.gen()
    r1, r2 = rng.sample(range(-4, 5), 2)
    xi_field = KummerField(k, (t - r1) * rng.choice([1, 2, -3]), m, "xi")
    eta_field = KummerField(xi_field, (t - r2) * (t * t + 1), m, "eta")
    calls = []
    for owner, name in ((RatFunc, "__mul__"), (RatFunc, "__rmul__"), (polys, "poly_cancel"),
                        (ratfunc, "poly_cancel"), (polys, "_gcd_ints")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _fn=fn, _name=name: calls.append(_name) or _fn(*args))
    for field in (xi_field, eta_field):
        rate, base = field.gen_rate, field.base
        wrongs = [rate * 2, rate + base.one()]
        if field is eta_field:
            wrongs.append(rate + xi_field.gen())
        calls.clear()
        field._check_derivation_consistency()
        assert calls == []
        for wrong in wrongs:
            field.gen_rate = wrong
            with pytest.raises(SelfCheckError, match="Kummer derivation rule is inconsistent"):
                field._check_derivation_consistency()
            assert calls == []
        field.gen_rate = rate
        for wrong in wrongs:
            with pytest.raises(SelfCheckError, match="Kummer derivation rule is inconsistent"):
                KummerField(base, field.alpha, m, field.gen_name, wrong)


def test_conjugate_is_homomorphism(k, rng):
    """The twist xi -> w^j xi of the inverse, for z = w (p = n = 3), respects sums and products."""
    e = KummerField(k, k.gen(), 3, "xi")
    xi = e.gen()
    for j in range(3):
        for _ in range(5):
            x = e.coerce(rng.randint(-3, 3)) + xi * rng.randint(-3, 3)
            y = e.coerce(rng.randint(-3, 3)) + xi * xi * rng.randint(-3, 3)
            assert (x * y)._twist(1, 3, j) == x._twist(1, 3, j) * y._twist(1, 3, j)
            assert (x + y)._twist(1, 3, j) == x._twist(1, 3, j) + y._twist(1, 3, j)


def test_norm_lands_in_base(k):
    e = KummerField(k, k.gen(), 3, "xi")
    x = e.gen() + e.one()
    norm = e.one()
    for j in range(3):
        norm = norm * x._twist(1, 3, j)
    assert norm.is_base()
    # N(xi + 1) = 1 + alpha for z^3 - alpha
    assert norm.base_value() == k.gen() + k.one()


def test_tower(k):
    e1 = KummerField(k, k.gen(), 3, "xi")
    e2 = KummerField(e1, k.gen() + k.one(), 3, "eta")
    eta = e2.gen()
    assert eta**3 == e2.coerce(k.gen() + k.one())
    # coercion from both lower tiers
    assert e2.coerce(e1.gen()) * e2.coerce(e1.gen().inv()) == e2.one()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_a_tower_of_four_independent_radicals_has_degree_m_to_the_fourth(m):
    k = RatFuncField(CycloField(m), "t")
    t = k.gen()
    field, gens = k, []
    for i in range(4):
        field = KummerField(field, t + i, m, f"x{i}")
        gens = [field.coerce(g) for g in gens] + [field.gen()]
    assert field.radicands == tuple((t + i, m) for i in range(4))
    assert field.geometric_degree == m**4
    x = gens[0] + gens[1] + gens[2] + gens[3]  # inverts by twists on every step of the tower
    assert x * x.inv() == field.one()


def test_a_dependent_radicand_is_refused_at_its_step():
    k = RatFuncField(CycloField(2), "t")
    t = k.gen()
    field = KummerField(KummerField(k, t, 2, "xi"), t + 1, 2, "eta")
    assert field.geometric_degree == 4
    with pytest.raises(ReducibleRadicandError, match=r"z\^2 - a irreducible over the Kummer tower \(degree 1 of 2"):
        KummerField(field, t * (t + 1), 2, "zeta")


def test_a_radicand_outside_the_bottom_field_is_refused(k):
    xi_field = KummerField(k, k.gen(), 3, "xi")
    with pytest.raises(ReducibleRadicandError, match="can only certify tower radicands that come from the bottom"):
        KummerField(xi_field, xi_field.gen() + 1, 3, "eta")


def test_monomial_field_rates(k):
    e = MonomialDiffField(k, ["x0", "x1"], [k.one(), k.gen()])
    x0, x1 = e.gen(0), e.gen(1)
    assert x0.derive() == x0
    assert x1.derive() == x1.scale(k.gen())
    # Leibniz across a product of generators
    prod = x0 * x1
    assert prod.derive() == prod.scale(k.one() + k.gen())


def test_laurent_monomials(k):
    e = MonomialDiffField(k, ["x0"], [k.gen()])
    x0 = e.gen(0)
    inv = x0 ** (-1)
    assert x0 * inv == e.one()
    # d(x^-1) = -x^-2 d(x) = -(rate) x^-1
    assert inv.derive() == inv.scale(-k.gen())
    with pytest.raises(ValueError):
        (x0 + e.one()) ** (-1)


def test_polydiff_prescribed_images(k):
    e = PolyDiffField(k, ["x0", "x1"])
    e.set_gen_derivative(0, e.gen(1))
    e.set_gen_derivative(1, e.gen(0))
    assert (e.gen(0) * e.gen(1)).derive() == e.gen(0) ** 2 + e.gen(1) ** 2


def test_hash_agrees_with_equality_down_the_tower(k):
    t = k.gen()
    xi_field = KummerField(k, t, 3, "xi")
    eta_field = KummerField(xi_field, t + k.one(), 3, "eta")
    assert xi_field.coerce(t) == t and hash(xi_field.coerce(t)) == hash(t)
    assert xi_field.one() == 1 and hash(xi_field.one()) == hash(1)
    xi = xi_field.gen()
    assert eta_field.coerce(xi) == xi and hash(eta_field.coerce(xi)) == hash(xi)
    assert eta_field.coerce(t) == t and hash(eta_field.coerce(t)) == hash(t)


def _towers(m):
    """k(xi) with xi^m = t over Q(w_m)(t), and the eta and zeta towers over it on t + 1."""
    k = RatFuncField(CycloField(m), "t")
    t = k.gen()
    xi_field = KummerField(k, t, m, "xi")
    eta_field = KummerField(xi_field, t + k.one(), m, "eta")
    zeta_field = KummerField(xi_field, t + k.one(), 2 * m, "zeta")
    return xi_field, eta_field, zeta_field


def _base_samples(field):
    """A rational constant, a monomial and a sum in the base of a Kummer field."""
    base = field.base
    samples = [base.coerce(-3), base.gen() * 2]
    samples.append(base.gen() + base.one() * 5)
    return samples


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_monomial_inverse_matches_extended_euclid(m):
    """(c xi^k)^-1 in closed form equals the extended-Euclid inverse, for every k."""
    for field in _towers(m):
        gen = field.gen()
        for c in _base_samples(field):
            for k in range(field.m):
                x = gen**k * field.coerce(c)
                inv = x.inv()
                assert kummer_coeffs(inv) == dense_kummer_inv(x)
                assert x * inv == field.one()


def _zero_results():
    """(id, element, parent) for results with no term left: products, differences and negatives of zero."""
    k = RatFuncField(CycloField(3), "t")
    e = MonomialDiffField(k, ["x0", "x1"], [k.one(), k.gen()])
    x = e.gen(0) + e.gen(1)
    big_k = KummerField(k, k.gen(), 3, "xi")
    y = big_k.gen() + 1
    return [
        pytest.param(lambda: x * e.zero(), e, id="monomial x*0"),
        pytest.param(lambda: x - x, e, id="monomial x-x"),
        pytest.param(lambda: -e.zero(), e, id="monomial -0"),
        pytest.param(lambda: y - y, big_k, id="kummer y-y"),
        pytest.param(lambda: -big_k.zero(), big_k, id="kummer -0"),
    ]


@pytest.mark.parametrize("result, parent", _zero_results())
def test_a_result_with_no_term_is_the_interned_zero(result, parent):
    assert result() is parent.zero()


def _small_support(field, rng, n_terms):
    """A seeded element of field with n_terms nonzero coefficients, each a monomial c gen^j of the base
    with c = a t + b w + d, so that Euclid's coefficients stay small enough to compare with."""
    base = bottom = field.base
    while isinstance(bottom, KummerField):
        bottom = bottom.base
    t, w = bottom.gen(), bottom.omega()
    coeffs = [base.zero()] * field.m
    for i in rng.sample(range(field.m), n_terms):
        c = base.coerce(t * rng.randint(-3, 3) + w * rng.randint(-2, 2) + rng.randint(1, 3))
        coeffs[i] = c * base.gen() ** rng.randrange(base.m) if isinstance(base, KummerField) else c
    return kummer_from_coeffs(field, coeffs)


@pytest.mark.parametrize("m", [3, 5])
def test_inverse_by_conjugates_agrees_with_extended_euclid(m, rng, monkeypatch):
    """A 2- or 3-term inverse is the product of twists over the norm, and equals the extended-Euclid inverse."""
    xi_field, eta_field, _ = _towers(m)
    routes = []
    conjugates = KummerElem._inv_conjugates
    monkeypatch.setattr(KummerElem, "_inv_conjugates", lambda x: routes.append(x) or conjugates(x))
    # Euclid over k(xi)[z] on three terms takes minutes, so eta's elements have two
    for field, sizes in ((xi_field, (2, 2, 3, 3)), (eta_field, (2, 2))):
        for n_terms in sizes:
            x = _small_support(field, rng, n_terms)
            del routes[:]
            inv = x.inv()
            assert routes[0] is x
            assert kummer_coeffs(inv) == dense_kummer_inv(x)
            assert x * inv == field.one()


def test_inverse_by_conjugates_checks_that_the_norm_lies_in_the_base(monkeypatch):
    """A corrupted twist, here the identity, leaves a product outside the twists' fixed field,
    in a round of p = 3 (xi at m = 3) and of p = 2 (zeta at m = 2)."""
    monkeypatch.setattr(KummerElem, "_twist", lambda self, s, p, j: self)
    for field in (_towers(3)[0], _towers(2)[2]):
        x = field.gen() + 1
        with pytest.raises(SelfCheckError, match="norm of a Kummer element"):
            x.inv()


def test_a_degree_other_than_the_cyclotomic_level_inverts_by_euclid(monkeypatch):
    """zeta, of degree 2m over k(xi), inverts by one round of twists (s, p, j) per prime p of 2m.

    At even m its base holds no primitive 2m-th root of unity, so no single round of 2m - 1 twists exists.
    """
    rounds = []
    twist = KummerElem._twist
    monkeypatch.setattr(KummerElem, "_twist", lambda x, s, p, j: rounds.append((s, p, j)) or twist(x, s, p, j))
    want = {
        2: [(1, 2, 1), (2, 2, 1)],
        3: [(1, 2, 1), (2, 3, 1), (2, 3, 2)],
        4: [(1, 2, 1), (2, 2, 1), (4, 2, 1)],
        6: [(1, 2, 1), (2, 2, 1), (4, 3, 1), (4, 3, 2)],
    }
    for m, m_rounds in want.items():
        _, _, zeta_field = _towers(m)
        x = zeta_field.gen() + 1
        del rounds[:]
        inv = x.inv()
        assert rounds == m_rounds
        assert x * inv == zeta_field.one()
        if m <= 4:
            assert kummer_coeffs(inv) == dense_kummer_inv(x)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_inverse_of_non_monomials(m, rng):
    """x x^-1 = 1 on xi, eta and zeta, x with up to 3 terms and rational coefficients, and at m = 3 on a
    3-term element of eta whose coefficients c xi^k lie beyond Q(w)(t).

    Such coefficients beyond m = 3, or on zeta, can make the gcds over Q(w) that keep the product's
    coefficients canonical swell for seconds to minutes.
    """
    xi_field, eta_field, zeta_field = _towers(m)
    xs = []
    for field in (xi_field, eta_field, zeta_field):
        gen = field.gen()
        x = field.coerce(rng.randint(1, 4)) + gen * rng.randint(1, 3)
        xs.append(x + gen ** (field.m - 1) * rng.randint(-3, 3))
    if m == 3:
        xs.append(_small_support(eta_field, rng, 3))
    for x in xs:
        assert x * x.inv() == x.parent.one()


@pytest.mark.parametrize("n, degree, p", [(2, 3, 3), (3, 5, 5), (2, 6, 3)])
def test_a_degree_with_an_odd_prime_outside_the_cyclotomic_level_is_refused(n, degree, p):
    """Q(w_n) holds no primitive p-th root of unity for an odd prime p prime to n, so no twist inverts."""
    k = RatFuncField(CycloField(n), "t")
    with pytest.raises(ValueError, match=f"the odd prime {p}, which does not divide the cyclotomic level {n}"):
        KummerField(k, k.gen(), degree, "xi")


def test_negative_powers_of_the_generator():
    xi_field, eta_field, _ = _towers(3)
    for field in (xi_field, eta_field):
        gen = field.gen()
        for n in range(1, 2 * field.m + 1):
            assert gen ** (-n) * gen**n == field.one()
        assert gen ** (-field.m) == field.coerce(field.alpha).inv()
    with pytest.raises(ZeroDivisionError):
        xi_field.zero().inv()


def _random_scalar(field, rng, density):
    """A seeded element of ``field``: each Kummer coefficient is nonzero with probability ``density``."""
    if isinstance(field, KummerField):
        base = field.base
        return kummer_from_coeffs(
            field, [_random_scalar(base, rng, density) if rng.random() < density else base.zero() for _ in range(field.m)]
        )
    t, w = field.gen(), field.omega()
    num = t * rng.randint(-3, 3) + w * rng.randint(-2, 2) + rng.randint(1, 3)
    return num / (t + rng.randint(1, 4)) if rng.random() < 0.5 else num


def _random_nonzero(field, rng, density):
    while True:
        x = _random_scalar(field, rng, density)
        if not x.is_zero():
            return x


def _samples(field, rng, n_random, density):
    """Zero, one, a base element, two monomials c gen^k and n_random seeded elements, all but zero nonzero."""
    samples = [field.zero(), field.one(), field.coerce(_random_nonzero(field.base, rng, density))]
    for k in (1, field.m - 1):
        samples.append(field.gen() ** k * field.coerce(_random_nonzero(field.base, rng, density)))
    samples += [_random_nonzero(field, rng, density) for _ in range(n_random)]
    return samples


def _support(x):
    """The number of Q(w)(t) coefficients stored in x, down the whole tower."""
    return sum(_support(c) for c in x.terms.values()) if isinstance(x, KummerElem) else 1


def _assert_canonical(x):
    """The stored terms: exponents in [0, m), no zero coefficient, each in the base field."""
    assert all(0 <= i < x.parent.m for i in x.terms)
    assert all(not c.is_zero() for c in x.terms.values())
    assert all(c == x.parent.base.coerce(c) for c in x.terms.values())


def _agrees(got, dense):
    _assert_canonical(got)
    assert kummer_coeffs(got) == dense
    assert got == kummer_from_coeffs(got.parent, dense)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_sparse_kummer_matches_the_dense_oracle(m, rng):
    """+, -, *, inv, derive, conjugate, == and hash against dense arithmetic, up the tower."""
    xi_field, eta_field, zeta_field = _towers(m)
    top = eta_field if m % 2 else zeta_field
    for field, n_random, density in ((xi_field, 4, 0.6), (top, 2, 0.35)):
        samples = _samples(field, rng, n_random, density)
        for x in samples:
            _assert_canonical(x)
            assert hash(x) == hash(kummer_from_coeffs(field, kummer_coeffs(x)))
            if x.is_base():
                assert hash(x) == hash(x.base_value())
                assert x == x.base_value()
            _agrees(-x, dense_kummer_neg(x))
            _agrees(x.derive(), dense_kummer_derive(x))
            for j in (1, m - 1):
                _agrees(x._twist(1, field.cyclo.m, j), dense_kummer_conjugate(x, j))
            # Euclid's coefficients swell with the support, so only small supports are inverted
            if 0 < _support(x) <= 2:
                _agrees(x.inv(), dense_kummer_inv(x))
        for x in samples:
            for y in samples:
                _agrees(x + y, dense_kummer_add(x, y))
                _agrees(x - y, dense_kummer_add(x, -y))
                _agrees(x * y, dense_kummer_mul(x, y))
                assert (x == y) == (kummer_coeffs(x) == kummer_coeffs(y))
                assert hash(x * y) == hash(y * x)
                assert (x + y) - y == x and hash((x + y) - y) == hash(x)


def _random_laurent(field, rng, n_terms):
    """A seeded sum of n_terms monomials with exponents in [-2, 2]; constant coefficients are among them."""
    base = field.base
    t = base.gen()
    x = field.zero()
    for _ in range(n_terms):
        exps = tuple(rng.randint(-2, 2) for _ in range(field.n))
        c = base.coerce(rng.randint(1, 4)) if rng.random() < 0.5 else t * rng.randint(1, 3) + rng.randint(-2, 2)
        x = x + polydiff_from_dense(field, {exps: c})
    return x


def _assert_sparse_keys(x):
    """Every key holds (index, exponent) pairs with ascending indices in [0, n) and no zero exponent."""
    n = x.parent.n
    for key, c in x.terms.items():
        assert isinstance(key, tuple) and not c.is_zero()
        assert all(0 <= i < n and e != 0 for i, e in key), key
        assert all(i < j for (i, _), (j, _) in zip(key, key[1:])), key


@pytest.mark.parametrize(
    "derivation, n",
    [("dt", 3), ("zero", 3), ("dt", 25), ("zero", 25), ("dt", 121), ("zero", 121)],
    ids=["dt", "zero", "dt-n25", "zero-n25", "dt-n121", "zero-n121"],
)
def test_polydiff_derive_matches_the_term_by_term_oracle(derivation, n, rng):
    k = RatFuncField(CycloField(3), "t", derivation)
    e = PolyDiffField(k, [f"x{i}" for i in range(n)])
    for i in range(e.n):
        e.set_gen_derivative(i, _random_laurent(e, rng, 3))
    rates = [k.gen() if i % 2 == 0 else k.one() * 2 for i in range(n - 1)]
    rates = MonomialDiffField(k, [f"y{i}" for i in range(n - 1)], rates)
    for field in (e, rates):
        xs = [_random_laurent(field, rng, n_terms) for n_terms in (0, 1, 2, 5)]
        for x in xs:
            _assert_sparse_keys(x)
            got = x.derive()
            assert got == polydiff_derive(x)
            _assert_sparse_keys(got)
            for y in xs:
                got = x * y
                assert got == dense_polydiff_mul(x, y)
                _assert_sparse_keys(got)
            for key, c in x.terms.items():
                mono = polydiff_from_dense(field, {dense_exponents(field, key): c})
                inv = mono.inv()
                assert dense_polydiff_mul(mono, inv) == field.one()
                _assert_sparse_keys(inv)


def test_polydiff_rejects_exponent_tuples_and_generator_indices_of_the_wrong_shape(k):
    """The field takes no dense exponent tuple, so the tests' dense builder checks their length itself."""
    e = PolyDiffField(k, ["x0", "x1"])
    one = k.one()
    with pytest.raises(ValueError, match="length 1 for n = 2"):
        polydiff_from_dense(e, {(1,): one})
    with pytest.raises(ValueError, match="length 3 for n = 2"):
        polydiff_from_dense(e, {(1, 0, 5): one})
    for i in (-1, 2):
        with pytest.raises(ValueError, match=f"index {i} is out of range for n = 2"):
            e.gen(i)
    assert polydiff_from_dense(e, {(1, 1): one}) == e.gen(0) * e.gen(1)


def test_polydiff_generator_derivatives_reject_indices_out_of_range(k):
    e = PolyDiffField(k, ["x0", "x1"])
    x0 = e.gen(0)
    # a negative index once named another generator: d(x1) read back as x0
    for i in (-1, 2):
        with pytest.raises(ValueError, match=f"index {i} is out of range for n = 2"):
            e.set_gen_derivative(i, x0)
        with pytest.raises(ValueError, match=f"index {i} is out of range for n = 2"):
            e.gen_derivative(i)
    with pytest.raises(ValueError, match="derivation of x1 was never set"):
        e.gen_derivative(1)
    e.set_gen_derivative(1, x0)
    assert e.gen_derivative(1) == x0


def _sparse_laurent(field, rng, n_terms):
    """A seeded sum of n_terms monomials in at most 3 of the n variables, nonzero exponents in [-2, 2]."""
    x = field.zero()
    for _ in range(n_terms):
        exps = [0] * field.n
        for i in rng.sample(range(field.n), rng.randint(0, min(3, field.n))):
            exps[i] = rng.choice((-2, -1, 1, 2))
        x = x + polydiff_from_dense(field, {tuple(exps): field.base.coerce(rng.randint(-3, 3) or 1)})
    return x


@pytest.mark.parametrize("n", [1, 3, 25, 256])
def test_polydiff_prints_as_the_dense_printer(n, rng):
    """Terms in the order of their dense exponent tuples, negative exponents and unit coefficients included."""
    k = RatFuncField(CycloField(3), "t")
    e = PolyDiffField(k, [f"x{i}" for i in range(n)])
    xs = [e.gen(i) for i in range(0, n, max(1, n // 8))]
    for n_terms in (0, 1, 2, 5, 9):
        xs += [_sparse_laurent(e, rng, n_terms) for _ in range(4)]
        if n <= 25:
            xs.append(_random_laurent(e, rng, n_terms))
    for x in xs:
        assert scalar_to_str(x) == dense_polydiff_str(x)


def test_polydiff_inverse_of_zero_raises_zero_division(k):
    e = PolyDiffField(k, ["x0", "x1"])
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        e.zero().inv()
    for src in ("x0/0", "0^-1"):
        with pytest.raises(ZeroDivisionError, match="inverse of zero"):
            parse_scalar(src, e)
    with pytest.raises(ValueError, match="single monomials"):
        (e.gen(0) + e.gen(1)).inv()


def test_generic_gauge_derivative_matches_the_oracle(rng):
    k = RatFuncField(CycloField(3), "t")
    t = k.gen()
    alg = SymbolAlgebra(k, t, t + k.one(), 3)
    phi = PhiMap(alg, KummerField(k, t, 3, "xi"))
    d = standard_derivation(alg) + inner_derivation(random_trace_zero(alg, rng))
    f = split_generic(compute_P(d, phi)).f
    assert all(a.derive() == polydiff_derive(a) for row in f.rows for a in row)
    # each x_rs derives to the image split_generic stored, not to a copy
    assert all(f.field.gen(i).derive() is f.field.gen_derivative(i) for i in range(f.field.n))


@pytest.mark.parametrize("derivation", ["dt", "zero"])
def test_polydiff_derive_near_a_generator_takes_the_leibniz_rule(derivation):
    """A bare generator derives to its stored image; c x_i, x_i^2, x_i^-1, x_i x_j and their sums match the oracle."""
    k = RatFuncField(CycloField(3), "t", derivation)
    t = k.gen()
    e = PolyDiffField(k, ["x0", "x1", "x2"])
    x0, x1, x2 = (e.gen(i) for i in range(3))
    e.set_gen_derivative(0, x1.scale(t) + x0 * x2)
    e.set_gen_derivative(1, x0 + e.coerce(t))
    e.set_gen_derivative(2, e.zero())
    rates = MonomialDiffField(k, ["y0", "y1"], [t, k.one() * 2])
    y0, y1 = rates.gen(0), rates.gen(1)
    assert all(f.gen(i).derive() is f.gen_derivative(i) for f in (e, rates) for i in range(f.n))
    for a, b in ((x0, x1), (x1, x2), (y0, y1)):
        for c in (t + 1, k.coerce(3)):
            for x in (a.scale(c), a * a, a.inv(), a * b, a.scale(c) + b, a + b, a * a + a.inv() + a * b):
                assert x.derive() == polydiff_derive(x)
    # d(x2) = 0, so d((t + 1) x2) is d(t + 1) x2 alone
    assert x2.scale(t + 1).derive() == x2.scale((t + 1).derive())


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_base_scalar_product_matches_the_dense_oracle(m, rng):
    """A factor in the base, the field's one included, multiplies coefficient by coefficient."""
    xi_field, eta_field, zeta_field = _towers(m)
    for field in (xi_field, eta_field if m % 2 else zeta_field):
        scalars = [field.one(), field.coerce(1)] + [field.coerce(c) for c in _base_samples(field)]
        elements = _samples(field, rng, 2, 0.5)
        for c in scalars:
            assert c.is_base()
            for x in elements:
                for got in (x * c, c * x):
                    _agrees(got, dense_kummer_mul(x, c))


def test_constants_with_no_term_left_are_the_interned_zeros(k):
    """A derivative with no term left, in a Kummer field or a polynomial ring, and a ring's zero are interned."""
    xi = KummerField(k, k.gen(), 3, "xi")
    assert xi.one().derive() is xi.zero()
    assert xi.coerce(5).derive() is xi.zero()
    e = PolyDiffField(k, ["x0", "x1"])
    assert e.zero() is e.zero()
    assert e.coerce(0) is e.zero() and e.gen(0).scale(0) is e.zero()
    assert e.gen(1) is e.gen(1) and e.generators()["x1"] is e.gen(1)
    # a rate 0: x0' = 0, so neither x0 nor a constant leaves a term
    x = MonomialDiffField(k, ["x0", "x1"], [0, k.gen()])
    assert x.gen(0).derive() is x.zero() and x.one().derive() is x.zero() and x.coerce(5).derive() is x.zero()
    assert not x.gen(1).derive().is_zero()


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_a_constant_factor_product_agrees_with_the_general_product(m, rng, monkeypatch):
    """A factor {(): c} scales the other factor, on either side and with no key merged; c = 1 gives it back."""
    from diffsym.scalars import monomial

    merges = []
    merge = monomial._mul_keys
    monkeypatch.setattr(monomial, "_mul_keys", lambda a, b: merges.append((a, b)) or merge(a, b))
    k = RatFuncField(CycloField(m), "t")
    t = k.gen()
    for base in (k, KummerField(k, t, m, "xi")):
        e = PolyDiffField(base, [f"x{i}" for i in range(m)])
        constants = [e.one(), e.coerce(base.one()), e.coerce(3), e.coerce(base.gen() + 1), e.coerce(k.omega() / (t + 2))]
        xs = [_random_laurent(e, rng, n) for n in (0, 1, 2, 5)] + constants
        for c in constants:
            for x in xs:
                want = dense_polydiff_mul(c, x)
                for got in (c * x, x * c):
                    assert got == want
                    _assert_sparse_keys(got)
        one = e.one()
        for x in xs:
            assert x * one is x and one * x == x
        assert one * e.gen(0) is e.gen(0)
    assert merges == []


def test_derive_takes_no_derivative_of_a_unit_coefficient(k, monkeypatch):
    """d(x_0 + x_1 x_2) sums the generators' images with no derivative of the base's one."""
    from diffsym.scalars import RatFunc

    e = PolyDiffField(k, ["x0", "x1", "x2"])
    t = k.gen()
    for i in range(3):
        e.set_gen_derivative(i, e.gen((i + 1) % 3).scale(t + i))
    x, y = e.gen(0) + e.gen(1) * e.gen(2), e.gen(0).scale(t)
    want = [polydiff_derive(x), polydiff_derive(y)]
    derivatives = []
    derive = RatFunc.derive
    monkeypatch.setattr(RatFunc, "derive", lambda c: derivatives.append(c) or derive(c))
    assert x.derive() == want[0]
    assert derivatives == []
    # any other coefficient is derived
    assert y.derive() == want[1]
    assert derivatives == [t]
