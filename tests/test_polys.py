"""Polynomial layer: arithmetic, gcd, Yun decomposition, and the coprime basis oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffsym.scalars import (
    CycloElem,
    CycloField,
    Poly,
    poly_gcd,
    squarefree_decompose,
)
from diffsym.scalars import polys
from generators import cli_queries_argv
import oracles
from oracles import coprime_basis, dense_poly_mul, euclid_gcd, gcd_cofactors, long_exact_div, multiplicity, poly_extended_gcd, yun_full_loop

coeffs = st.lists(st.integers(min_value=-6, max_value=6), min_size=0, max_size=5)
# the rationals, as the cyclotomic field Q(w_1)
QQ = CycloField(1)


def P(cs):
    return Poly(QQ, [Fraction(c) for c in cs])


def test_normalization_drops_leading_zeros():
    assert P([1, 2, 0, 0]).degree == 1
    assert P([]).is_zero()
    assert P([0]).is_zero()


@given(coeffs, coeffs)
def test_add_commutes(a, b):
    assert P(a) + P(b) == P(b) + P(a)


@given(coeffs, coeffs, coeffs)
@settings(max_examples=60)
def test_mul_distributes(a, b, c):
    pa, pb, pc = P(a), P(b), P(c)
    assert pa * (pb + pc) == pa * pb + pa * pc


@given(coeffs, coeffs)
@settings(max_examples=60)
def test_divmod_roundtrip(a, b):
    pa, pb = P(a), P(b)
    if pb.is_zero():
        return
    q, r = divmod(pa, pb)
    assert q * pb + r == pa
    assert r.is_zero() or r.degree < pb.degree


def test_divmod_over_q_w_by_monic_and_non_monic_divisors(monkeypatch):
    from diffsym.scalars import CycloElem, CycloField

    c = CycloField(5)
    w = c.omega()
    a = Poly(c, [w, c.coerce(3), w * w, c.coerce(2), w + 1])
    inverses = []
    original = CycloElem.inv
    monkeypatch.setattr(CycloElem, "inv", lambda x: inverses.append(x) or original(x))
    for b, n_inv in ((Poly(c, [w, c.one()]), 0), (Poly(c, [c.one(), w + 2]), 1), (Poly(c, [w, c.zero(), w * 3]), 1)):
        del inverses[:]
        q, r = divmod(a, b)
        assert len(inverses) == n_inv
        assert q * b + r == a and r.degree < b.degree


@given(coeffs, coeffs)
@settings(max_examples=60)
def test_extended_gcd_bezout(a, b):
    pa, pb = P(a), P(b)
    g, s, t = poly_extended_gcd(pa, pb)
    assert s * pa + t * pb == g
    if not g.is_zero():
        assert (pa % g).is_zero() and (pb % g).is_zero()


def test_yun_known_decomposition():
    t = Poly.gen(QQ)
    p = (t + 1) ** 3 * (t - 2) ** 2 * t
    dec = squarefree_decompose(p)
    assert sorted(j for _, j in dec) == [1, 2, 3]
    recombined = Poly.one(QQ)
    for q, j in dec:
        recombined = recombined * q**j
    assert recombined == p.monic()


@given(st.lists(coeffs, min_size=1, max_size=3))
@settings(max_examples=40)
def test_yun_recombines(css):
    p = Poly.one(QQ)
    for i, cs in enumerate(css):
        q = P(cs)
        if q.degree < 1:
            continue
        p = p * q ** (i + 1)
    if p.degree < 1:
        return
    recombined = Poly.one(QQ)
    for q, j in squarefree_decompose(p):
        assert poly_gcd(q, q.derivative()).degree == 0
        recombined = recombined * q**j
    assert recombined == p.monic()


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_yun_shortcuts_agree_with_the_full_loop(m, rng):
    """Squarefree inputs and products of linear factors over Q(w_m) with multiplicities up to m."""
    field = CycloField(m)
    t = Poly.gen(field)
    w = field.omega()
    kinds = {"squarefree": 0, "repeated": 0}
    for trial in range(10):
        p = Poly.constant(field, field.from_rational(rng.choice([1, 2, -3, Fraction(1, 2)])))
        for i, root in enumerate(rng.sample(range(-4, 5), rng.randint(1, 3))):
            factor = t - Poly.constant(field, field.from_rational(root) + w * rng.randint(0, 1))
            # an even trial's first factor has multiplicity at least 2, so that p has a repeated root
            p = p * factor ** (1 if trial % 2 else rng.randint(2 if i == 0 else 1, m))
        got = squarefree_decompose(p)
        assert got == yun_full_loop(p)
        kinds["squarefree" if got == [(p.monic(), 1)] else "repeated"] += 1
    assert min(kinds.values()) >= 3, kinds


def test_a_squarefree_input_takes_one_gcd(monkeypatch):
    field = CycloField(5)
    t = Poly.gen(field)
    w = Poly.constant(field, field.omega())
    calls = []
    gcd = polys.poly_gcd
    monkeypatch.setattr(polys, "poly_gcd", lambda *args: calls.append(args) or gcd(*args))
    p = (t * 3 - 1) * (t + w) * (t * t + 2)
    assert squarefree_decompose(p) == [(p.monic(), 1)]
    assert len(calls) == 1


def test_coprime_basis_pairwise_coprime():
    t = Poly.gen(QQ)
    inputs = [t * (t + 1), (t + 1) * (t - 1), t**2 - 1]
    basis = coprime_basis(inputs)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert poly_gcd(basis[i], basis[j]).degree == 0
    # each input factors over the basis
    for p in inputs:
        rem = p.monic()
        for b in basis:
            rem_next, r = divmod(rem, b ** multiplicity(rem, b))
            assert r.is_zero()
            rem = rem_next
        assert rem.degree == 0


def test_hash_agrees_with_equality_across_types():
    from diffsym.scalars import CycloField, RatFuncField

    c = CycloField(2)
    k = RatFuncField(c)
    assert k.gen() == Poly.gen(c) and hash(k.gen()) == hash(Poly.gen(c))
    q = Poly(CycloField(3), [CycloField(3).omega(), 1, 2])
    assert RatFuncField(CycloField(3)).from_poly(q) == q
    assert hash(RatFuncField(CycloField(3)).from_poly(q)) == hash(q)
    three = Poly.constant(c, c.from_rational(3))
    assert three == c.from_rational(3) and hash(three) == hash(c.from_rational(3)) == hash(3)
    assert Poly.zero(c) == c.zero() and hash(Poly.zero(c)) == hash(c.zero())
    assert P([Fraction(1, 2)]) == Fraction(1, 2) and hash(P([Fraction(1, 2)])) == hash(Fraction(1, 2))


def test_public_constructors_validate():
    from diffsym.scalars import CycloElem, CycloField, RatFunc, RatFuncField

    c = CycloField(3)
    p = Poly(c, [1, Fraction(1, 2), 0])
    assert len(p.coeffs) == 2 and all(type(x) is CycloElem for x in p.coeffs)
    assert p.coeffs == (c.one(), c.from_rational(Fraction(1, 2)))
    with pytest.raises(TypeError):
        Poly(c, ["x"])
    k = RatFuncField(c)
    t = Poly.gen(c)
    f = RatFunc(k, t * 2 + 2, t * 2)
    assert f.num.coeffs == (c.one(), c.one()) and f.den.coeffs == (c.zero(), c.one())


def test_arithmetic_results_end_in_a_nonzero_coefficient():
    from diffsym.scalars import CycloField, RatFuncField

    c = CycloField(5)
    w = c.omega()
    t = Poly.gen(c)
    p = t * t * w + t * 3 + 1
    q = t * t * w - t + w
    polys = [p + (-q), p - q, p - p, p * q, p * 0, p * Poly.zero(c), q * Poly.constant(c, w), p * w]
    polys += [*divmod(p * q + t, q), p.monic(), (t * t).derivative(), Poly.constant(c, w).derivative(), -p]
    k = RatFuncField(c)
    x, y = k.from_poly(p) / k.from_poly(q), k.from_poly(q) / k.from_poly(t + 1)
    for f in (x + y, x - x, x * y, x * 0, x.inv(), -y, x.derive(), x / y, y + 1 - y):
        polys += [f.num, f.den]
    for r in polys:
        assert not r.coeffs or not r.coeffs[-1].is_zero()


def test_interned_constants_hash_and_compare_as_before():
    from diffsym.scalars import CycloField, RatFuncField

    c = CycloField(3)
    k = RatFuncField(c)
    assert k.zero() is k.zero() and k.one() is k.one()
    assert k.zero() == 0 and k.zero() == c.zero() and hash(k.zero()) == hash(0) == hash(c.zero())
    assert k.one() == 1 and k.one() == c.one() and hash(k.one()) == hash(1) == hash(c.one())
    assert k.zero().num.is_zero() and k.zero().den == Poly.one(c) and k.one().num == Poly.one(c)
    assert k.coerce(0) == k.zero() and k.coerce(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(k.coerce(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert k.one() != k.zero() and k.zero() + k.one() == k.one() and k.one() * k.zero() == k.zero()
    assert RatFuncField(c).zero() == k.zero() and RatFuncField(c, "t", "zero").one() == k.one().constant_value()


def _random_poly(field, rng, deg):
    """A random polynomial of degree at most deg over QQ or Q(w); zero for deg < 0."""
    def coeff():
        if field is QQ:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return CycloElem(field, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(field.degree)])

    return Poly(field, [coeff() for _ in range(deg + 1)])


@pytest.mark.parametrize("field", [QQ, CycloField(5)], ids=["QQ", "Q(w_5)"])
def test_gcd_agrees_with_euclids_loop(field, rng):
    """Common factors, coprime pairs, constants and zeros, in either order."""
    one = Poly.one(field)
    pairs = [(Poly.zero(field), Poly.zero(field)), (Poly.zero(field), one), (one, Poly.zero(field))]
    trivial = 0
    for _ in range(30):
        g = _random_poly(field, rng, rng.randint(0, 2))
        a = g * _random_poly(field, rng, rng.randint(-1, 3))
        b = g * _random_poly(field, rng, rng.randint(-1, 3))
        const = _random_poly(field, rng, 0)
        pairs += [(a, b), (b, a), (a, const), (const, a), (a, Poly.zero(field)), (Poly.zero(field), b)]
    for a, b in pairs:
        got, want = poly_gcd(a, b), euclid_gcd(a, b)
        assert got == want and got.coeffs == want.coeffs, (a, b)
        trivial += got.degree == 0
    assert 0 < trivial < len(pairs)


def test_the_exact_quotient_in_z_t_refuses_a_scale_and_a_remainder():
    """The exact quotient is the pseudo-division's quotient when the divisor divides in Z[t], of either sign;
    a divisor that divides only over Q (t / 2t) makes the scale 2, and t^2 + 1 by t + 1 leaves 2."""
    assert polys._exact_quotient([-2, 0, 2], [-1, 1]) == [2, 2]
    assert polys._exact_quotient([2, 0, -2], [1, -1]) == [2, 2]
    for a, b in (([0, 1], [0, 2]), ([1, 0, 1], [1, 1])):
        with pytest.raises(ValueError, match="not exact"):
            polys._exact_quotient(a, b)


def test_gcd_stops_at_the_first_constant_remainder(monkeypatch):
    """Both routes end at the first nonzero constant remainder, where Euclid's loop takes one step more.

    Over Q the steps are the integer kernel's pseudo-divisions; over Q(w_3), with the coefficient w,
    they are Euclid's divisions in Q(w)[t].
    """
    steps = {"prem": 0, "divmod": 0}
    prem, divmod_ = polys._pseudo_divmod, Poly.__divmod__

    def counted(name, fn):
        def wrapper(*args):
            steps[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(polys, "_pseudo_divmod", counted("prem", prem))
    monkeypatch.setattr(Poly, "__divmod__", counted("divmod", divmod_))
    # the oracle divides by the long division over the field directly, not through divmod
    monkeypatch.setattr(oracles, "_long_division", counted("divmod", oracles._long_division))

    def run(fn, *args):
        steps.update(prem=0, divmod=0)
        return fn(*args), steps["prem"], steps["divmod"]

    q3 = CycloField(3)
    for field, c, integer in ((QQ, QQ.one(), True), (q3, q3.omega(), False)):
        t, one, c = Poly.gen(field), Poly.one(field), Poly.constant(field, c)
        one_step = (one, 1, 0) if integer else (one, 0, 1)
        # (t^2 + c) mod t = c ends the loop; Euclid's loop divides t by c as well
        assert run(poly_gcd, t * t + c, t) == one_step
        assert run(euclid_gcd, t * t + c, t) == (one, 0, 2)
        # a nonzero constant b takes no step; a constant a takes one division, a mod b = a, on
        # Euclid's route and none on the integer route, which orders the pair by degree
        assert run(poly_gcd, t * t + c, Poly.constant(field, 3)) == (one, 0, 0)
        assert run(poly_gcd, c, t) == ((one, 0, 0) if integer else one_step)


def _rational_factor(field, rng):
    """A polynomial in Q[t] of degree 1 or 2 with a non-unit denominator in its leading coefficient, of either sign."""
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(rng.randint(1, 2))]
    return Poly(field, coeffs + [Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(2, 5))])


def _rational_product(field, rng, n_factors, max_exponent):
    """A rational constant times random factors from _rational_factor, each to a power up to max_exponent."""
    p = Poly.constant(field, Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4)))
    for _ in range(n_factors):
        p = p * _rational_factor(field, rng) ** rng.randint(1, max_exponent)
    return p


@pytest.mark.parametrize("m", range(1, 8))
def test_rational_gcd_and_yun_run_on_integer_vectors_and_agree_with_the_oracles(m, rng, monkeypatch):
    """Over Q(w_m), inputs in Q[t] take the integer kernel and give Euclid's gcd and Yun's factors over Q(w_m).

    Products of random factors with repeated roots and non-unit denominators, zero, constants, equal,
    dividing, negated and coprime pairs; each monic result ends in the field's interned one.
    """
    field = CycloField(m)
    kernel = []
    gcd_ints = polys._gcd_ints
    monkeypatch.setattr(polys, "_gcd_ints", lambda *args: kernel.append(args) or gcd_ints(*args))
    zero, one = Poly.zero(field), Poly.one(field)
    const = Poly.constant(field, Fraction(-5, 3))
    pairs = [(zero, zero), (zero, one), (one, zero), (const, zero), (zero, const), (const, one)]
    for _ in range(6):
        g = _rational_product(field, rng, rng.randint(0, 2), 2)
        a = g * _rational_product(field, rng, rng.randint(0, 2), 3)
        b = g * _rational_product(field, rng, rng.randint(0, 2), 3)
        pairs += [(a, b), (b, a), (a, a), (a, g), (g, a), (-a, b), (a, -a), (a, const), (const, a), (a, zero), (zero, b)]
    trivial = 0
    for a, b in pairs:
        del kernel[:]
        got = poly_gcd(a, b)
        assert kernel or min(a.degree, b.degree) <= 0, (a, b)
        want = euclid_gcd(a, b)
        assert got == want and got.coeffs == want.coeffs, (a, b)
        assert got.is_zero() or got.coeffs[-1] is field.one()
        trivial += got.degree == 0
    assert 0 < trivial < len(pairs)
    repeated = 0
    for p in [const, -const] + [_rational_product(field, rng, rng.randint(1, 3), 4) for _ in range(6)]:
        del kernel[:]
        got = squarefree_decompose(p)
        assert kernel or p.degree <= 0
        want = yun_full_loop(p)
        assert got == want and [q.coeffs for q, _ in got] == [q.coeffs for q, _ in want], p
        assert all(q.coeffs[-1] is field.one() for q, _ in got)
        repeated += any(j > 1 for _, j in got)
    assert repeated >= 2
    with pytest.raises(ValueError):
        squarefree_decompose(zero)


def _kernel_samples(field, rng):
    """Polynomials in Q[t] over field: zero, constants, and random products whose leading coefficients
    have non-unit denominators and either sign, with their products by shared factors."""
    zero, one = Poly.zero(field), Poly.one(field)
    samples = [zero, one, Poly.constant(field, Fraction(-5, 3)), Poly.gen(field), -Poly.gen(field)]
    for _ in range(4):
        g = _rational_product(field, rng, rng.randint(1, 2), 2)
        samples += [g, g * _rational_product(field, rng, rng.randint(0, 2), 2), -g * Poly.gen(field) ** 3]
    return samples


@pytest.mark.parametrize("m", range(1, 8))
def test_rational_products_divisions_and_cancellations_agree_with_the_q_w_loops(m, rng, monkeypatch):
    """Over Q(w_m), products, divmod, exact_div and poly_cancel of polynomials in Q[t] run on integer
    vectors and give the support walk's products, long division's quotients and remainders, and
    Euclid's gcd with long division's cofactors, coefficient for coefficient.

    Covers non-unit denominators, divisors with a negative leading coefficient, divisors longer than
    the dividend, zero and constant operands; exact_div raises ValueError on a remainder.
    """
    field = CycloField(m)
    support, long_division = polys._support_product, polys._long_division
    q_w = []
    monkeypatch.setattr(polys, "_support_product", lambda *args: q_w.append(args) or support(*args))
    monkeypatch.setattr(polys, "_long_division", lambda *args: q_w.append(args) or long_division(*args))
    samples = _kernel_samples(field, rng)
    kinds = {"negative lead": 0, "longer divisor": 0, "remainder": 0, "cancels": 0}
    for a in samples:
        for b in samples:
            got = a * b
            x, y = (a, b) if len(a.coeffs) >= len(b.coeffs) else (b, a)
            want = support(field, x.coeffs, y.coeffs) if len(y.coeffs) > 1 else dense_poly_mul(a, b)
            assert got.coeffs == want.coeffs, (a, b)
            if b.is_zero():
                with pytest.raises(ZeroDivisionError):
                    divmod(a, b)
                with pytest.raises(ZeroDivisionError):
                    a.exact_div(b)
                continue
            q, r = divmod(a, b)
            wq, wr = long_division(a, b)
            assert q.coeffs == wq.coeffs and r.coeffs == wr.coeffs, (a, b)
            assert (a % b).coeffs == wr.coeffs and (a // b).coeffs == wq.coeffs
            kinds["negative lead"] += b.leading_coeff().num[0] < 0 and r.degree >= 0
            kinds["longer divisor"] += b.degree > a.degree >= 0
            if r.is_zero():
                assert a.exact_div(b).coeffs == q.coeffs
            else:
                kinds["remainder"] += 1
                with pytest.raises(ValueError):
                    a.exact_div(b)
            assert (a * b).exact_div(b).coeffs == a.coeffs
            if a.is_zero():
                continue
            x, y = polys.poly_cancel(a, b)
            g = euclid_gcd(a, b)
            if g.degree > 0:
                kinds["cancels"] += 1
                assert x.coeffs == long_exact_div(a, g).coeffs and y.coeffs == long_exact_div(b, g).coeffs, (a, b)
                if b.leading_coeff() == field.one():
                    assert y.coeffs[-1] is field.one()
            else:
                assert x is a and y is b
    assert q_w == [] and min(kinds.values()) > 0, kinds


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_associates_cancel_to_their_leading_coefficients(m, rng, monkeypatch):
    """poly_cancel(c b, b) and poly_cancel(b, c b), c rational and b in Q[t], are the poly_gcd and
    exact_div cofactors, read off the vectors with no remainder sequence; equal-length pairs that are
    not associates still run one, and so does a pair with a non-rational coefficient, over Q(w)."""
    field = CycloField(m)
    gcd_ints, euclid = polys._gcd_ints, polys.poly_gcd
    calls = {"kernel": 0, "euclid": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(polys, "_gcd_ints", counted("kernel", gcd_ints))
    monkeypatch.setattr(polys, "poly_gcd", counted("euclid", euclid))
    for _ in range(12):
        b = _rational_product(field, rng, rng.randint(1, 3), 2)
        c = Fraction(rng.choice((-5, -1, 1, 2, 7)), rng.randint(1, 6))
        for x, y in ((b * c, b), (b, b * c), (b, b)):
            calls.update(kernel=0, euclid=0)
            got = polys.poly_cancel(x, y)
            assert calls == {"kernel": 0, "euclid": 0}
            want = gcd_cofactors(x, y)
            assert [p.coeffs for p in got] == [p.coeffs for p in want], (x, y)
            assert got[0].degree == got[1].degree == 0
        # same length, never proportional: b and b + 1 differ in the constant term alone
        other = b + Poly.constant(field, 1)
        calls["kernel"] = 0
        got = polys.poly_cancel(other, b)
        assert calls["kernel"] == 1
        want = gcd_cofactors(other, b)
        assert [p.coeffs for p in got] == [p.coeffs for p in want]
    if m > 2:
        w = Poly.constant(field, field.omega())
        b = (Poly.gen(field) + w) * _rational_product(field, rng, 1, 1)
        calls.update(kernel=0, euclid=0)
        got = polys.poly_cancel(b * Fraction(-3, 2), b)
        assert calls == {"kernel": 0, "euclid": 1}
        assert [p.coeffs for p in got] == [p.coeffs for p in gcd_cofactors(b * Fraction(-3, 2), b)]


@pytest.mark.parametrize("m", [3, 5])
def test_a_non_rational_coefficient_takes_the_q_w_loops(m, rng, monkeypatch):
    """One coefficient w sends products to the support walk, divisions to long division and
    cancellation to Euclid's gcd over Q(w), which agree with the dense product and the oracles."""
    field = CycloField(m)
    t = Poly.gen(field)
    w = Poly.constant(field, field.omega())
    g = (t * 3 - 1) * (t + w)
    a, b = g * (t * t + 2), g * (t - w) ** 2
    p = _rational_product(field, rng, 2, 2)
    ap = a * p
    calls = {"support": 0, "long": 0, "kernel": 0}
    support, long_division, gcd_ints = polys._support_product, polys._long_division, polys._gcd_ints

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(polys, "_support_product", counted("support", support))
    monkeypatch.setattr(polys, "_long_division", counted("long", long_division))
    monkeypatch.setattr(polys, "_gcd_ints", counted("kernel", gcd_ints))
    assert (a * p).coeffs == ap.coeffs == dense_poly_mul(a, p).coeffs and calls["support"] == 1
    q, r = divmod(a, b)
    assert calls["long"] == 1 and r.degree < b.degree
    assert ap.exact_div(a).coeffs == p.coeffs and calls["long"] == 2
    with pytest.raises(ValueError):
        (a + 1).exact_div(b)
    x, y = polys.poly_cancel(a, b)
    assert calls["kernel"] == 0
    assert x.coeffs == long_exact_div(a, g.monic()).coeffs and y.coeffs == long_exact_div(b, g.monic()).coeffs
    assert q * b + r == a


@pytest.mark.parametrize("m", [3, 5])
def test_a_non_rational_coefficient_takes_euclids_loop(m, monkeypatch):
    """One coefficient w among rational ones sends gcd and Yun over Q(w)[t]."""
    field = CycloField(m)
    t = Poly.gen(field)
    w = Poly.constant(field, field.omega())
    p = (t - 1) ** 2 * (t * 2 + 3) ** 3 * (t + w)
    q = (t - 1) * (t + 5)
    kernel, divisions = [], []
    gcd_ints, divmod_ = polys._gcd_ints, Poly.__divmod__
    monkeypatch.setattr(polys, "_gcd_ints", lambda *args: kernel.append(args) or gcd_ints(*args))
    monkeypatch.setattr(Poly, "__divmod__", lambda *args: divisions.append(args) or divmod_(*args))
    got_gcd = poly_gcd(p, q)
    assert kernel == [] and len(divisions) > 0
    del divisions[:]
    got_yun = squarefree_decompose(p)
    # Yun's first gcd, gcd(p, p'), is Euclid's; a later one whose inputs lie in Q[t] may take the kernel
    assert len(divisions) > 0
    assert got_gcd == euclid_gcd(p, q) == (t - 1)
    assert got_yun == yun_full_loop(p)
    assert sorted(j for _, j in got_yun) == [1, 2, 3]
    # the same pair with w replaced by a rational takes the kernel and no division
    del divisions[:], kernel[:]
    assert poly_gcd((t - 1) ** 2 * (t + 2), q) == t - 1
    assert len(kernel) == 1 and divisions == []


def test_cli_queries_divide_in_q_w_only_on_inputs_with_a_non_rational_coefficient(monkeypatch):
    """Through every diffsym name for poly_gcd, squarefree_decompose and poly_cancel, and through
    Poly.exact_div and %, the cli-queries argv (seed 7, one round) takes no Q(w)[t] long division and
    no Q(w) inverse inside a call whose inputs all lie in Q[t]."""
    import contextlib
    import io
    import sys
    from collections import Counter

    from diffsym import cli

    argvs = cli_queries_argv(monkeypatch, 7, 1)
    calls, divisions, inside = Counter(), Counter(), []

    def rational(p):
        return type(p) is Poly and type(p.field) is CycloField and all(c.is_rational() for c in p.coeffs)

    def traced(name, fn):
        def wrapper(*args):
            flag = all(rational(p) for p in args)
            calls[name, flag] += 1
            inside.append(flag)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return wrapper

    def division(fn):
        def wrapper(*args):
            if inside:
                divisions[inside[-1]] += 1
            return fn(*args)

        return wrapper

    wrappers = [(polys.poly_gcd, traced("gcd", polys.poly_gcd)),
                (polys.squarefree_decompose, traced("yun", polys.squarefree_decompose)),
                (polys.poly_cancel, traced("cancel", polys.poly_cancel))]
    for name, module in list(sys.modules.items()):
        if name == "diffsym" or name.startswith("diffsym."):
            for attr, value in list(vars(module).items()):
                for original, wrapper in wrappers:
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
    monkeypatch.setattr(Poly, "exact_div", traced("exact_div", Poly.exact_div))
    monkeypatch.setattr(Poly, "__mod__", traced("mod", Poly.__mod__))
    monkeypatch.setattr(polys, "_long_division", division(polys._long_division))
    monkeypatch.setattr(CycloElem, "inv", division(CycloElem.inv))
    codes = Counter()
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes[cli.main(argv + ["--json"])] += 1
    assert set(codes) <= {0, 1} and sum(codes.values()) == len(argvs) > 40
    # Q(w)(t)'s canonical forms take their gcds inside poly_cancel, the other layers through poly_gcd
    assert calls["gcd", True] + calls["cancel", True] > 40 and calls["yun", True] > 20, calls
    assert min(calls["gcd", True], calls["cancel", True], calls["exact_div", True]) > 0, calls
    # valuations refines its coprime basis with no % scan, so no % runs on Q[t] inputs here;
    # test_rational_products_divisions_and_cancellations_agree_with_the_q_w_loops covers % on them
    assert calls["mod", True] == 0, calls
    assert divisions[True] == 0, (divisions, calls)
    # the counters see the divisions of the calls that have a non-rational coefficient
    assert calls["cancel", False] > 0 and divisions[False] > 0, (divisions, calls)


def _poly_fields():
    """One param (field, coefficient sampler) each for QQ, Q(w_m) at m = 2..7, Q(w)(t) and k(xi)."""
    from diffsym.scalars import KummerField, RatFuncField

    out = [pytest.param(QQ, lambda rng: Fraction(rng.randint(-5, 5), rng.randint(1, 3)), id="QQ")]
    for m in range(2, 8):
        c = CycloField(m)
        sampler = lambda rng, w=c.omega(), m=m: w ** rng.randrange(m) * rng.randint(-3, 3)
        out.append(pytest.param(c, sampler, id=f"Q(w_{m})"))
    k = RatFuncField(CycloField(3), "t")
    t = k.gen()

    def fraction(rng):
        return (t * rng.randint(-2, 2) + rng.randint(-2, 2)) / (t + rng.randint(1, 3))

    e = KummerField(k, t, 3, "xi")
    xi = e.gen()
    out.append(pytest.param(k, fraction, id="Q(w)(t)"))
    out.append(pytest.param(e, lambda rng: xi ** rng.randrange(3) * (t + rng.randint(-2, 2)), id="k(xi)"))
    return out


@pytest.mark.parametrize("field, coeff", _poly_fields())
def test_product_on_the_support_agrees_with_the_dense_loop(field, coeff, rng):
    """Sparse factors with zero coefficients drawn on purpose, constants, zero and t^a * t^b."""
    zero = field.zero()

    def sparse(deg):
        return Poly(field, [coeff(rng) if rng.random() < 0.4 else zero for _ in range(deg + 1)])

    t = Poly.gen(field)
    samples = [Poly.zero(field), Poly.one(field), Poly.constant(field, coeff(rng)), t**3, t**5 * coeff(rng)]
    samples += [sparse(rng.randint(0, 6)) for _ in range(6)]
    for a in samples:
        for b in samples:
            got, want = a * b, dense_poly_mul(a, b)
            assert got == want and got.coeffs == want.coeffs, (field, a, b)


def test_a_monomial_product_takes_one_coefficient_product(monkeypatch):
    """Over Q(w_5), w t^4 * t^3 multiplies the one nonzero coefficient of each factor, once; in Q[t],
    t^4 * t^3 runs on integer vectors and takes no coefficient product."""
    c = CycloField(5)
    t = Poly.gen(c)
    w = Poly.constant(c, c.omega())
    cases = [(w * t**4, t**3, w * t**7, 1), (t**4, t**3, t**7, 0)]
    calls = []
    mul = CycloElem.__mul__

    def counted(x, y):
        calls.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(CycloElem, "__mul__", counted)
    for a, b, expected, n_products in cases:
        del calls[:]
        got = a * b
        assert got == expected and got.coeffs == expected.coeffs
        assert len(calls) == n_products
    assert (t**4 * t**3).coeffs[-1] is c.one()


@pytest.mark.parametrize("field, coeff", [p for p in _poly_fields() if p.id in ("Q(w_3)", "Q(w_7)", "Q(w)(t)", "k(xi)")])
def test_a_product_with_the_one_polynomial_returns_the_other_factor(field, coeff, rng):
    """p * 1 and 1 * p are p itself when 1's coefficient is the field's interned one; p is never zero,
    since 0 * 1 is the product with a zero factor."""
    t = Poly.gen(field)
    one = Poly.one(field)

    def nonzero():
        while True:
            c = field.coerce(coeff(rng))
            if not c.is_zero():
                return c

    for p in (t**3 * nonzero() + nonzero(), Poly.constant(field, nonzero()), t, one):
        assert p * one is p
    for p in (t**3 + nonzero(), t):
        assert one * p is p
