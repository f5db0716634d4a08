"""Rational function field Q(w)(t): canonical form and the d/dt derivation."""

from fractions import Fraction

import pytest

from diffsym.scalars import CycloElem, CycloField, Poly, RatFunc, RatFuncField, poly_gcd, ratfunc
from oracles import canonical_add, canonical_derive, canonical_inv, canonical_mul, canonical_neg


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


def test_hash_agrees_with_equality_for_constants(k):
    assert k.one() == 1 and hash(k.one()) == hash(1)
    w = k.cyclo.omega()
    assert k.omega() == w and hash(k.omega()) == hash(w)
    assert len({k.one(), k.cyclo.one(), 1}) == 1
    t = k.gen()
    assert hash(t / (t + k.one())) == hash(k.one() - k.one() / (t + k.one()))


def _cyclo(field, rng):
    """A random element of Q(w), rarely rational and rarely 1."""
    return CycloElem(field, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(field.degree)])


def _nonzero(field, rng):
    c = field.zero()
    while c.is_zero():
        c = _cyclo(field, rng)
    return c


def _poly(field, rng, deg):
    """A random polynomial of degree exactly deg; its leading coefficient is seldom 1."""
    return Poly(field, [_cyclo(field, rng) for _ in range(deg)] + [_nonzero(field, rng)])


def _henrici_pairs(k, rng):
    """Operand pairs for the Henrici oracle test, and how many share a squared linear factor."""
    c = k.cyclo
    t = Poly.gen(c)
    pairs = []
    shared = 0
    for _ in range(4):
        x = RatFunc(k, _poly(c, rng, rng.randint(0, 3)), _poly(c, rng, rng.randint(0, 3)))
        y = RatFunc(k, _poly(c, rng, rng.randint(0, 2)), _poly(c, rng, rng.randint(1, 3)))
        pairs += [(x, y), (y, x)]
        # x = a/p^2 and y = s/(p q) - x: gcd of the denominators p^2, and x + y = s/(p q)
        # has a numerator that p divides once
        p = t - Poly.constant(c, _cyclo(c, rng))
        x = RatFunc(k, _poly(c, rng, 1), p * p)
        z = RatFunc(k, _poly(c, rng, 1), p * _poly(c, rng, 1))
        y = canonical_add(z, canonical_neg(x))
        g = poly_gcd(x.den, y.den)
        if g == (p * p).monic() and (x + y).den.degree == x.den.degree + y.den.degree - 3:
            shared += 1
        pairs += [(x, y), (y, x)]
        # sums that cancel to zero: -x written with a content factor the constructor removes
        three = Poly.constant(c, c.from_rational(3))
        pairs.append((x, RatFunc(k, -x.num * three, x.den * three)))
        # constant denominators, polynomials, constants and zero
        u = RatFunc(k, _poly(c, rng, 2), _poly(c, rng, 0))
        v = k.from_poly(_poly(c, rng, 1))
        pairs += [(u, v), (u, y), (k.coerce(_cyclo(c, rng)), x), (k.zero(), y), (x, k.zero()), (k.one(), v)]
    return pairs, shared


def _same(got, want):
    assert got._key() == want._key() and hash(got) == hash(want), (got, want)
    assert got.parent == want.parent
    assert got.den.coeffs[-1] == 1
    assert all(not p.coeffs or not p.coeffs[-1].is_zero() for p in (got.num, got.den))


@pytest.mark.parametrize("derivation", ["dt", "zero"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 8])
def test_henrici_arithmetic_agrees_with_the_canonicalising_oracle(m, derivation, rng):
    k = RatFuncField(CycloField(m), "t", derivation)
    pairs, shared = _henrici_pairs(k, rng)
    assert shared >= 3
    for x, y in pairs:
        _same(x + y, canonical_add(x, y))
        _same(x * y, canonical_mul(x, y))
        _same(x - y, canonical_add(x, canonical_neg(y)))
        _same(-x, canonical_neg(x))
        _same(x + 2, canonical_add(x, k.coerce(2)))
        _same(3 * x, canonical_mul(k.coerce(3), x))
        if not x.is_zero():
            _same(x.inv(), canonical_inv(x))
            _same(y / x, canonical_mul(y, canonical_inv(x)))


@pytest.mark.parametrize("derivation", ["dt", "zero"])
@pytest.mark.parametrize("m", [1, 3, 5])
def test_derive_agrees_with_the_quotient_rule(m, derivation, rng):
    """0, constants, polynomials and proper fractions: the quotient rule, in canonical form.

    Denominators q1 q2^2 q3^3 have gcd(b, b') != 1, so the derivative divides by it.
    """
    k = RatFuncField(CycloField(m), "t", derivation)
    pairs, _ = _henrici_pairs(k, rng)
    t = k.gen()
    samples = [k.zero(), k.coerce(3), k.omega(), t, t**3 * 2 - t + k.omega(), 1 / t, (t + 1) / (t * t - 2)]
    samples += [x for pair in pairs for x in pair]
    c = k.cyclo
    tp = Poly.gen(c)
    for _ in range(6):
        q1, q2, q3 = (tp - Poly.constant(c, _cyclo(c, rng)) for _ in range(3))
        samples.append(RatFunc(k, _poly(c, rng, rng.randint(0, 4)), q1 * q2**2 * q3**3))
    kinds = {"polynomial": 0, "fraction": 0, "repeated factor": 0}
    for x in samples:
        got = x.derive()
        _same(got, canonical_derive(x))
        if not got.is_zero():
            assert poly_gcd(got.num, got.den).degree == 0
        kinds["polynomial" if x.den.degree == 0 else "fraction"] += 1
        kinds["repeated factor"] += poly_gcd(x.den, x.den.derivative()).degree > 0
    assert min(kinds.values()) >= 5, kinds


def test_henrici_gcd_counts(monkeypatch):
    c = CycloField(5)
    k = RatFuncField(c)
    t = Poly.gen(c)
    w = Poly.constant(c, c.omega())
    f = k.from_poly(t * t * 3 + w * t + 1)
    g = k.from_poly(t * w - 2)
    x = RatFunc(k, t * t + 1, t - w)
    y = RatFunc(k, t * w, t * t - 2)
    calls = []
    cancel = ratfunc.poly_cancel

    def counting(*args):
        calls.append(args)
        return cancel(*args)

    # each gcd of the canonical forms is taken inside one poly_cancel
    monkeypatch.setattr(ratfunc, "poly_cancel", counting)
    for result in (f + g, f * g, f - g):
        assert result.den.degree == 0
    assert not calls
    for z in (x, y, f, g):
        z.inv()
    assert not calls
    assert (x + y).den == (t - w) * (t * t - 2)
    assert len(calls) == 1


@pytest.mark.parametrize("derivation", ["dt", "zero"])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_a_shared_denominator_sum_takes_one_gcd(m, derivation, rng, monkeypatch):
    """a/b + c/b is (a + c)/b with only gcd(a + c, b) taken, equal to RatFunc(parent, a d + c b, b d).

    Covers sums prime to b, x + (-x), and a + c sharing the factor p of b = p q.  Each gcd of the
    canonical forms is taken inside one poly_cancel, which is counted.
    """
    k = RatFuncField(CycloField(m), "t", derivation)
    c = k.cyclo
    t = Poly.gen(c)
    calls = []
    cancel = ratfunc.poly_cancel
    monkeypatch.setattr(ratfunc, "poly_cancel", lambda *args: calls.append(args) or cancel(*args))
    kinds = {"prime to b": 0, "cancels p": 0, "zero": 0}
    for _ in range(12):
        p = t - Poly.constant(c, _cyclo(c, rng))
        b = p * _poly(c, rng, rng.randint(0, 2))
        a = _poly(c, rng, rng.randint(0, 2))
        x = RatFunc(k, a, b)
        if not x.den == b.monic():
            continue
        three = Poly.constant(c, c.from_rational(3))
        sums = [
            ("prime to b", RatFunc(k, _poly(c, rng, rng.randint(0, 3)), b)),
            ("cancels p", RatFunc(k, p * _poly(c, rng, rng.randint(0, 1)) - a, b)),
            ("zero", RatFunc(k, -a * three, b * three)),
        ]
        for kind, y in sums:
            # a drawn "prime to b" numerator of -a would make the sum x + (-x), the "zero" kind
            if not y.den == x.den or kind == "prime to b" and y == -x:
                continue
            calls.clear()
            got = x + y
            assert len(calls) == (0 if kind == "zero" else 1)
            _same(got, canonical_add(x, y))
            if kind == "cancels p":
                assert got.den.degree < b.degree
            elif kind == "zero":
                assert got.is_zero()
            kinds[kind] += 1
    assert min(kinds.values()) >= 5, kinds


def test_a_constant_derives_to_the_interned_zero(k):
    assert k.coerce(3).derive() is k.zero()
    assert k.omega().derive() is k.zero()
    assert k.one().derive() is k.zero()
