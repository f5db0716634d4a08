"""Power detection in Q(w)(t) and irreducibility certificates for z^m - a.

The m-th-power test rests on squarefree multiplicities only; no irreducible
factorization is ever computed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .cyclo import CycloElem
from .polys import Poly, coprime_basis, multiplicity, squarefree_decompose
from .ratfunc import RatFunc


class ReducibleRadicandError(ValueError):
    """Raised when z^m - a fails (or cannot be certified by) the Kummer criterion."""


def _prime_factors(n: int):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def _int_nth_root(n: int, k: int):
    """Exact k-th root of a nonnegative integer, or None.

    Newton's method on ints: from a start above the real root, the step
    x -> ((k-1) x + n // x^(k-1)) // k decreases strictly until it reaches
    floor(n^(1/k)); no float is involved, so any size of n is exact.
    """
    if n < 0:
        raise ValueError("negative input")
    if n in (0, 1):
        return n
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x**k == n else None


def rational_nth_root(q: Fraction, k: int):
    """Exact k-th root of a rational, or None (sign handled for odd k)."""
    if q == 0:
        return Fraction(0)
    sign = 1
    if q < 0:
        if k % 2 == 0:
            return None
        sign = -1
        q = -q
    num = _int_nth_root(q.numerator, k)
    den = _int_nth_root(q.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(sign * num, den)


def cyclo_nth_root(c: CycloElem, k: int, height: int = 3):
    """Search for e in Q(w) with e^k = c.

    Rational c is decided exactly.  Otherwise a bounded-height search over
    integer coordinate vectors is attempted; None means "no root found" (for
    non-rational inputs this is a bounded search, not a proof).
    """
    field = c.parent
    if c.is_rational():
        r = rational_nth_root(c.rational_value(), k)
        if r is not None:
            return field.from_rational(r)
        # a rational can still be a k-th power of a non-rational cyclotomic
        # element (e.g. -1 = w^2 for m=4); fall through to the search.
    deg = field.degree
    if deg > 4:
        return None
    rng = range(-height, height + 1)
    for coeffs in product(rng, repeat=deg):
        if all(x == 0 for x in coeffs):
            continue
        e = CycloElem(field, [Fraction(x) for x in coeffs])
        if e**k == c:
            return e
    return None


def mth_power_up_to_constant(f: RatFunc, m: int):
    """Decide f = c * h^m with c in Q(w); return (c, h) or None.

    Succeeds iff every multiplicity in the squarefree decompositions of the
    numerator and denominator is divisible by m.  h is normalized with monic
    numerator and denominator so the answer is deterministic.
    """
    if f.is_zero():
        raise ValueError("power detection needs a nonzero input")
    if m < 1:
        raise ValueError("m must be positive")
    field = f.parent
    one = Poly.one(field.cyclo)
    hnum, hden = one, one
    for poly, target in ((f.num, "num"), (f.den, "den")):
        if poly.degree == 0:
            continue
        for q, j in squarefree_decompose(poly):
            if j % m != 0:
                return None
            part = q ** (j // m)
            if target == "num":
                hnum = hnum * part
            else:
                hden = hden * part
    h = field.from_poly(hnum, hden)
    c_rf = f / h**m
    if not c_rf.is_constant():
        raise AssertionError("power detection produced a non-constant cofactor")
    c = c_rf.constant_value()
    return c, h


def kummer_vahlen_certify(alpha: RatFunc, m: int) -> None:
    """Certify z^m - alpha irreducible over Q(w)(t); raise otherwise.

    Classical criterion: alpha not in k^p for every prime p | m and, when
    4 | m, alpha not in -4 k^4.  Constant cofactors are tested for p-th powers
    in Q(w) by exact rational root extraction plus a bounded-height search.
    """
    if alpha.is_zero():
        raise ReducibleRadicandError("radicand must be nonzero")
    for p in _prime_factors(m):
        res = mth_power_up_to_constant(alpha, p)
        if res is not None:
            c, _h = res
            e = cyclo_nth_root(c, p)
            if e is not None:
                raise ReducibleRadicandError(
                    f"radicand is a {p}-th power in the base field (z^{m} - a reducible)"
                )
            if not c.is_rational():
                raise ReducibleRadicandError(
                    f"cannot certify that the constant cofactor is a {p}-th non-power"
                )
    if m % 4 == 0:
        res = mth_power_up_to_constant(alpha, 4)
        if res is not None:
            c, _h = res
            e = cyclo_nth_root(c / (-4), 4)
            if e is not None:
                raise ReducibleRadicandError(
                    "radicand lies in -4 k^4 (z^m - a reducible for 4 | m)"
                )


def _finite_valuations(f: RatFunc, basis):
    """Valuations of f at the coprime-basis blocks plus the place at infinity."""
    vals = []
    for b in basis:
        v = multiplicity(f.num, b) - multiplicity(f.den, b)
        vals.append(v)
    vals.append(f.den.degree - f.num.degree)  # place at infinity
    return vals


def certify_power_free_over_kummer(alpha: RatFunc, w_alpha_m: int, beta: RatFunc, big_m: int) -> None:
    """Certify z^M - beta irreducible over k(xi), xi^m = alpha, via valuations.

    For a place q of k = Q(w)(t), the ramification index in k(xi) is
    e_q = m / gcd(m, v_q(alpha)); if e_q * v_q(beta) is not divisible by a
    prime p | M at some place, beta is not a p-th power in k(xi).  This is a
    sufficient certificate; inconclusive cases raise honestly.
    """
    m = w_alpha_m
    parts = []
    for f in (alpha, beta):
        parts.extend(q for q, _ in squarefree_decompose(f.num))
        parts.extend(q for q, _ in squarefree_decompose(f.den))
    basis = coprime_basis(parts)
    va = _finite_valuations(alpha, basis)
    vb = _finite_valuations(beta, basis)
    from math import gcd

    ram = [m // gcd(m, v) for v in va]
    checks = [p for p in _prime_factors(big_m)]
    moduli = checks + ([4] if big_m % 4 == 0 else [])
    for p in moduli:
        if not any((e * v) % p != 0 for e, v in zip(ram, vb)):
            raise ReducibleRadicandError(
                f"cannot certify z^{big_m} - a irreducible over the Kummer tower "
                f"(valuation test inconclusive mod {p})"
            )
