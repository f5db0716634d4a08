"""Cyclotomic field Q(w): construction, primitivity, field axioms."""

import pytest

from diffsym.scalars import CycloField, cyclotomic_polynomial


@pytest.mark.parametrize("m,deg", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 4), (6, 2), (7, 6), (12, 4)])
def test_phi_degree_is_euler_totient(m, deg):
    assert len(cyclotomic_polynomial(m)) - 1 == deg


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_the_product_of_phi_d_over_the_divisors_of_m_is_x_to_the_m_minus_1():
    """x^m - 1 = prod_{d | m} Phi_d, by integer multiplication with no division, for m = 1..60."""
    for m in range(1, 61):
        phi = cyclotomic_polynomial(m)
        assert all(type(c) is int for c in phi) and phi[-1] == 1
        product = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                product = _int_poly_mul(product, cyclotomic_polynomial(d))
        assert product == [-1] + [0] * (m - 1) + [1], m


def test_phi_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(1, 61):
        want = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(m) == tuple(int(c) for c in want), m


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


def _random_elem(f, rng, density, max_den=5):
    from fractions import Fraction

    from diffsym.scalars import CycloElem

    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, max_den)) if rng.random() < density else 0
        for _ in range(f.degree)
    ]
    return CycloElem(f, coeffs)


@pytest.mark.parametrize("m", range(1, 17))
def test_product_matches_poly_product_mod_phi(m, rng):
    """The table-folded product equals the Poly product over Q = Q(w_1) reduced mod Phi_m."""
    from fractions import Fraction

    from diffsym.scalars import Poly

    rationals = CycloField(1)
    f = CycloField(m)
    phi = Poly(rationals, f.modulus)
    w = f.omega()
    samples = [f.zero(), f.one(), f.from_rational(Fraction(-3, 7)), w, w ** (m - 1)]
    samples += [_random_elem(f, rng, density) for density in (0.3, 0.7, 1.0, 1.0)]
    for a in samples:
        for b in samples:
            product = a * b
            reduced = (Poly(rationals, a.coeffs) * Poly(rationals, b.coeffs)) % phi
            assert product.coeffs == tuple(reduced.coeff(i).rational_value() for i in range(f.degree))
            assert all(type(c) is Fraction for c in product.coeffs)
            assert len(product.coeffs) == f.degree


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 9, 11, 12, 13, 15, 16])
def test_inverse_of_random_elements(m, rng):
    f = CycloField(m)
    for density in (0.3, 0.7, 1.0, 1.0):
        x = _random_elem(f, rng, density)
        if x.is_zero():
            continue
        assert x * x.inv() == f.one()
        assert x.inv() * x == 1


def test_interned_constants_compare_and_hash_as_values():
    from fractions import Fraction

    f = CycloField(5)
    assert f.zero() is f.zero() and f.one() is f.one() and f.omega() is f.omega()
    assert f.zero() == 0 and f.zero() == Fraction(0) and f.zero() == CycloField(3).zero()
    assert f.one() == 1 and f.one() == CycloField(7).one()
    assert hash(f.zero()) == hash(0) and hash(f.one()) == hash(1)
    assert f.zero().is_zero() and not f.one().is_zero()
    w = f.omega()
    assert w + f.zero() == w and w * f.one() == w and (w * f.zero()).is_zero()
    assert len({f.zero(), CycloField(4).zero(), 0}) == 1


@pytest.mark.parametrize("m", [2, 3, 5, 12])
def test_a_zero_or_one_operand_gives_back_an_element(m, rng):
    """x * 1, 1 * x, x + 0 and 0 + x return x itself, x * 0 the interned zero, and a computed 0 or 1 is interned."""
    from fractions import Fraction

    f = CycloField(m)
    zero, one = f.zero(), f.one()
    samples = [f.omega(), f.from_rational(Fraction(-3, 7)), one, zero]
    samples += [_random_elem(f, rng, density) for density in (0.5, 1.0)]
    # a zero from the public constructor is equal to, but not, the interned zero
    for a in [a for a in samples if a is zero or not a.is_zero()]:
        assert a * one is a and one * a is a
        assert zero + a is a and a + zero is a
        assert a * zero is zero and zero * a is zero
        assert a - a is zero and a + (-a) is zero
        if not a.is_zero():
            assert a * a.inv() is one and a.inv() * a is one and a / a is one
    assert f.from_rational(Fraction(1, 2)) + f.from_rational(Fraction(1, 2)) is one
    assert f.from_rational(2) * f.from_rational(Fraction(1, 2)) is one
    assert one.inv() is one


def test_public_constructor_still_validates():
    from fractions import Fraction

    from diffsym.scalars import CycloElem

    f = CycloField(5)
    x = CycloElem(f, [1, 2, 0, Fraction(1, 2)])
    assert all(type(c) is Fraction for c in x.coeffs)
    with pytest.raises(ValueError):
        CycloElem(f, [1, 2])
    with pytest.raises(TypeError):
        CycloElem(f, [1, 2, 3, object()])


def _assert_canonical(x):
    from math import gcd

    assert len(x.num) == x.parent.degree and all(type(n) is int for n in x.num)
    assert type(x.den) is int and x.den > 0
    assert gcd(x.den, *x.num) == 1
    if x.is_zero():
        assert x.num == (0,) * x.parent.degree and x.den == 1


@pytest.mark.parametrize("m", range(1, 17))
def test_integer_core_agrees_with_the_fraction_oracle(m, rng):
    from fractions import Fraction

    from diffsym.scalars import CycloElem
    from oracles import euclid_inverse, fraction_add, fraction_mul, fraction_neg

    f = CycloField(m)
    w = f.omega()
    samples = [f.zero(), f.one(), f.from_rational(Fraction(-5, 12)), w, w ** (m - 1) * Fraction(7, 6)]
    samples += [_random_elem(f, rng, 0.75, max_den=12) for _ in range(7)]
    for x in samples:
        _assert_canonical(x)
        _assert_canonical(-x)
        assert (-x).coeffs == fraction_neg(x.coeffs)
        if not x.is_zero():
            inv = x.inv()
            _assert_canonical(inv)
            assert inv.coeffs == euclid_inverse(f, x.coeffs)
    for x in samples:
        for y in samples:
            for got, want in ((x + y, fraction_add(x.coeffs, y.coeffs)),
                              (x - y, fraction_add(x.coeffs, fraction_neg(y.coeffs))),
                              (x * y, fraction_mul(f, x.coeffs, y.coeffs))):
                _assert_canonical(got)
                assert got.coeffs == want
                rebuilt = CycloElem(f, want)
                assert got == rebuilt and hash(got) == hash(rebuilt)
                if got.is_rational():
                    assert got == want[0] and hash(got) == hash(want[0])
            assert (x == y) == (x.coeffs == y.coeffs)
    assert f.zero().num == (0,) * f.degree and f.zero().den == 1
    assert (samples[-1] - samples[-1]).num == (0,) * f.degree


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16])
def test_norm_is_the_determinant_of_multiplication(m, rng):
    from oracles import det_expansion

    f = CycloField(m)
    rationals = CycloField(1)
    w = f.omega()
    for x in [w, w + 2] + [_random_elem(f, rng, 0.75, max_den=12) for _ in range(2 if f.degree < 8 else 1)]:
        # column j holds the coordinates of x * w^j
        cols = [(x * w**j).coeffs for j in range(f.degree)]
        matrix = [[rationals.from_rational(col[i]) for col in cols] for i in range(f.degree)]
        assert x.norm() == det_expansion(matrix, rationals).rational_value()
    assert f.zero().norm() == 0


@pytest.mark.parametrize("m", [5, 7, 12])
def test_inverse_self_check_fails_loudly(m):
    f = CycloField(m)
    f._conjugations = f._conjugations[:-1]  # drop one conjugate: the "norm" is no rational
    with pytest.raises(AssertionError):
        (f.omega() + 2).inv()


def test_rationals_hash_as_fractions_across_conductors():
    from fractions import Fraction

    for q in (Fraction(0), Fraction(1), Fraction(-3), Fraction(5, 12), Fraction(-7, 9), Fraction(10**30 + 1, 6)):
        for m in range(1, 17):
            x = CycloField(m).from_rational(q)
            _assert_canonical(x)
            assert hash(x) == hash(q) and x == q and x.rational_value() == q
            assert hash(x * x.parent.one()) == hash(q) and hash(x + 0) == hash(q)


@pytest.mark.parametrize("m", [2, 3, 5, 12])
def test_the_negative_of_a_zero_is_the_interned_zero(m, rng):
    """-0 is the field's interned zero, whether the zero was computed or built by the public constructor."""
    from diffsym.scalars import CycloElem

    f = CycloField(m)
    a = _random_elem(f, rng, 1.0)
    assert -(a - a) is f.zero()
    assert -f.zero() is f.zero()
    assert -CycloElem(f, [0] * f.degree) is f.zero()
    assert -(-a) == a and not (-a).is_zero()


@pytest.mark.parametrize("m", range(1, 25))
def test_the_per_m_constants_are_the_powers_and_the_gap_inverses(m):
    """omega_powers[k] = w^k with [0] the interned one and [1] omega(); inverse_gaps[j] (1 - w^j) = 1, built once."""
    f = CycloField(m)
    w, one = f.omega(), f.one()
    powers = f.omega_powers
    assert len(powers) == m and powers[0] is one and powers[1 % m] is w
    assert all(wk == w**k for k, wk in enumerate(powers))
    gaps = f.inverse_gaps
    assert len(gaps) == m and gaps[0] is None
    assert all(gaps[j] * (one - powers[j]) == one for j in range(1, m))
    assert f.inverse_gaps is gaps


@pytest.mark.parametrize("m", [2, 3, 5, 12])
def test_a_rational_from_another_conductor_is_built_through_from_rational(m):
    """0 and 1 from another Q(w) are the interned zero() and one(); other rationals keep their value."""
    from fractions import Fraction

    f, other = CycloField(m), CycloField(m + 1)
    assert f.coerce(other.zero()) is f.zero()
    assert f.coerce(other.one()) is f.one()
    for q in (Fraction(-1), Fraction(2, 3), Fraction(-7, 4), Fraction(5)):
        assert f.coerce(other.from_rational(q)) == f.from_rational(q)


@pytest.mark.parametrize("m", [2, 3, 5, 12])
def test_the_negative_of_minus_one_is_the_interned_one(m):
    f = CycloField(m)
    minus_one = -f.one()
    assert -minus_one is f.one()
    assert -(f.zero() - f.one()) is f.one()
    assert -f.from_rational(-1) is f.one()
    assert (-f.from_rational(-2)).rational_value() == 2


def test_the_phi_self_checks_fail_loudly(monkeypatch):
    """A wrong Phi_d leaves a remainder in x^m - 1, and a table where x^m != 1 fails the construction."""
    from diffsym.errors import SelfCheckError
    from diffsym.scalars import cyclo

    table = cyclo._power_table(5)
    monkeypatch.setattr(cyclo, "_power_table", lambda m: table[:5] + table[4:])
    with pytest.raises(SelfCheckError, match="does not divide x\\^m - 1"):
        CycloField(5)
    monkeypatch.undo()
    monkeypatch.setattr(cyclo, "cyclotomic_polynomial", lambda d: (2, 1) if d == 2 else cyclotomic_polynomial(d))
    with pytest.raises(SelfCheckError, match="dividing x\\^4 - 1 by Phi_2 left a remainder"):
        cyclotomic_polynomial.__wrapped__(4)
    assert cyclotomic_polynomial.__wrapped__(3) == (1, 1, 1)
