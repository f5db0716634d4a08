"""Power detection in Q(w)(t) and irreducibility certificates for z^m - a.

The m-th-power test rests on squarefree multiplicities only; no irreducible
factorization is ever computed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from ..errors import SelfCheckError
from .cyclo import CycloElem
from .polys import Poly, coprime_basis, multiplicity, squarefree_decompose
from .ratfunc import RatFunc, _ratfunc


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
    # n < 2 has no prime factors
    return _prime_factors(n) == [n]


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

    A rational root of a rational c is found exactly.  Otherwise a
    bounded-height search over integer coordinate vectors is attempted; None
    means "no root found", which is not a proof that none exists.
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
    numerator and denominator so the answer is deterministic.  The answer is
    checked as f.num * hden^m = c * hnum^m * f.den with c = lc(f.num): the
    factors of hnum divide f.num and those of hden divide f.den, which are
    coprime, so hnum/hden is already in canonical form.
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
    c = f.num.leading_coeff()
    lhs = f.num * hden**m if hden.degree > 0 else f.num
    rhs = hnum**m * c
    if f.den.degree > 0:
        rhs = rhs * f.den
    if not lhs == rhs:
        raise SelfCheckError("power detection produced a non-constant cofactor")
    return c, _ratfunc(field, hnum, hden)


def rational_is_power_in_cyclotomic(q: Fraction, p: int, n: int) -> bool:
    """Decide exactly whether a nonzero rational q is a p-th power in Q(w_n), p prime.

    For odd p, Q(q^(1/p)) is abelian only when q is a rational p-th power.
    For p = 2, Q(sqrt(d)) lies in Q(w_n) iff d is, modulo rational squares,
    in the group generated by q* = (-1)^((q-1)/2) q for each odd prime q | n,
    by -1 when 4 | n and by 2 when 8 | n; so q is a square in Q(w_n) iff
    q*d is a rational square for one d of that group.  q is never factored.
    """
    if p != 2:
        return rational_nth_root(q, p) is not None
    gens = [r if r % 4 == 1 else -r for r in _prime_factors(n) if r != 2]
    if n % 4 == 0:
        gens.append(-1)
    if n % 8 == 0:
        gens.append(2)
    classes = {1}
    for g in gens:
        classes |= {c * g for c in classes}
    return any(rational_nth_root(q * d, 2) is not None for d in classes)


def _rational_part(c: CycloElem, k: int):
    """Rational q with c = q w^j and w^j a k-th power of a root of unity, or None.

    j = 0 always qualifies; any j does when k is prime to n, since then
    w^j = (w^(j k^-1 mod n))^k.  So c is a k-th power in Q(w) iff q is.
    """
    n = c.parent.m
    w_inv = c.parent.omega() ** (n - 1)
    for _ in range(n if gcd(n, k) == 1 else 1):
        if c.is_rational():
            return c.rational_value()
        c = c * w_inv
    return None


def _constant_is_power(c: CycloElem, k: int) -> bool:
    """Decide whether a nonzero c in Q(w_n) is a k-th power, k prime or k = 4.

    A cofactor q w^j (``_rational_part``) is decided exactly, apart from a
    4th root of a q that is a square in Q(w_n) but not in Q.  Otherwise c is
    refuted when N(c) is no rational k-th power, since N(e^k) = N(e)^k, and
    confirmed when a bounded-height search finds a root.  Where none of these
    decides, raise "cannot certify".
    """
    n = c.parent.m
    q = _rational_part(c, k)
    if q is not None:
        if k != 4:
            return rational_is_power_in_cyclotomic(q, k, n)
        # e^4 = q gives e^2 = s or -s with s^2 = q, so q is a square in Q(w_n)
        s = rational_nth_root(q, 2)
        if s is not None:
            return rational_is_power_in_cyclotomic(s, 2, n) or rational_is_power_in_cyclotomic(-s, 2, n)
        if not rational_is_power_in_cyclotomic(q, 2, n):
            return False
    if rational_nth_root(c.norm(), k) is None:
        return False
    if cyclo_nth_root(c, k) is not None:
        return True
    raise ReducibleRadicandError(f"cannot certify that the constant cofactor is a {k}-th non-power")


def kummer_vahlen_certify(alpha: RatFunc, m: int) -> None:
    """Certify z^m - alpha irreducible over Q(w)(t); raise otherwise.

    Classical criterion: alpha not in k^p for every prime p | m and, when
    4 | m, alpha not in -4 k^4.  The constant cofactor c of alpha = c h^p is
    decided by ``_constant_is_power``.  For 4 | m the p = 2 test has already
    shown that alpha is no square.  When also 4 | n, i lies in Q(w_n) and
    -4 = (1 + i)^4, so alpha in -4 k^4 would make alpha a 4th power, hence
    a square: nothing is left to test.  Otherwise c/(-4) is tested for a 4th
    power in the same way.
    """
    if alpha.is_zero():
        raise ReducibleRadicandError("radicand must be nonzero")
    for p in _prime_factors(m):
        res = mth_power_up_to_constant(alpha, p)
        if res is None:
            continue
        c, _h = res
        if _constant_is_power(c, p):
            raise ReducibleRadicandError(
                f"radicand is a {p}-th power in the base field (z^{m} - a reducible)"
            )
    if m % 4 == 0 and alpha.parent.cyclo.m % 4 != 0:
        res = mth_power_up_to_constant(alpha, 4)
        if res is not None:
            c, _h = res
            if _constant_is_power(c / (-4), 4):
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
    ram = [m // gcd(m, v) for v in va]
    moduli = _prime_factors(big_m) + ([4] if big_m % 4 == 0 else [])
    for p in moduli:
        if not any((e * v) % p != 0 for e, v in zip(ram, vb)):
            raise ReducibleRadicandError(
                f"cannot certify z^{big_m} - a irreducible over the Kummer tower "
                f"(valuation test inconclusive mod {p})"
            )
