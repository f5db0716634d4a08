"""Power detection in Q(w)(t) and irreducibility certificates for z^m - a.

Every m-th-power decision reads the valuation vectors of ``valuations``: one
squarefree decomposition per radicand and one coprime basis for them all,
refined with the vectors.  A product of powers of radicands has the same
combination of their vectors, and is c h^m iff m divides it; ``mth_root``
checks each such verdict before it is acted on.  The readers:
``mth_power_up_to_constant``, ``kummer_vahlen_certify`` (p | gcd v_alpha),
``certify_power_free_over_kummer`` (the ``subgroup_order`` of a Kummer
tower's rows), ``deriv.constants_standard`` (-i v_alpha - j v_beta) and
``split.maximal_subfield_necessary`` (v - r v_nu).  No irreducible
factorization is ever computed.  ``echelon`` is the one integer row-echelon
routine, with its unimodular transform and the inverse: ``subgroup_order``
reads the pivots of a tower's rows and n Z^N off it, and ``split.split_inner``
the integer relations among the rates of its P.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

from ..errors import SelfCheckError
from .cyclo import CycloElem
from .polys import Poly, poly_gcd, squarefree_decompose
from .ratfunc import RatFunc, _ratfunc

# the largest absolute value of an integer coordinate that cyclo_nth_root's search tries
ROOT_SEARCH_HEIGHT = 3


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


def cyclo_nth_root(c: CycloElem, k: int):
    """Search for e in Q(w) with e^k = c.

    A rational root of a rational c is found exactly.  Otherwise a search over
    integer coordinate vectors of height at most ``ROOT_SEARCH_HEIGHT`` is
    attempted; None means "no root found", which is not a proof that none
    exists.
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
    rng = range(-ROOT_SEARCH_HEIGHT, ROOT_SEARCH_HEIGHT + 1)
    for coeffs in product(rng, repeat=deg):
        if all(x == 0 for x in coeffs):
            continue
        e = CycloElem(field, [Fraction(x) for x in coeffs])
        if e**k == c:
            return e
    return None


def valuations(*fs):
    """(basis, vectors): one coprime basis for the nonzero f and each f's valuation vector on it.

    Each non-constant numerator and denominator is decomposed once, so f is
    lc(f.num) prod q^(v_q) over its squarefree parts q, which are pairwise
    coprime, f.num and f.den included; a single f's parts are its basis.
    Several f's parts are refined into one coprime basis, each carrying its
    vector over the fs (factor refinement; Bach, Driscoll and Shallit,
    J. Algorithms 1993): a p that meets a basis element b in g = gcd(p, b)
    is replaced by g, with v_p + v_b, and p/g and b/g, with their own
    vectors, so that f is lc(f.num) prod b^(v_b) at every step.
    """
    parts = []
    for f in fs:
        if f.is_zero():
            raise ValueError("power detection needs a nonzero input")
        parts.append([(q, sign * j) for poly, sign in ((f.num, 1), (f.den, -1)) if poly.degree > 0
                      for q, j in squarefree_decompose(poly)])
    if len(parts) == 1:  # one f's parts are a coprime basis already
        return [q for q, _ in parts[0]], [[j for _, j in parts[0]]]
    zero = (0,) * len(fs)
    stack = [(q.monic(), zero[:k] + (j,) + zero[k + 1:]) for k, f_parts in enumerate(parts) for q, j in f_parts]
    basis = []
    while stack:
        p, vp = stack.pop()
        if p.degree <= 0:
            continue
        for idx, (b, vb) in enumerate(basis):
            g = poly_gcd(p, b)
            if g.degree > 0:
                del basis[idx]
                stack += [(g, tuple(x + y for x, y in zip(vp, vb))), (b.exact_div(g), vb), (p.exact_div(g), vp)]
                break
        else:
            basis.append((p, vp))
    return [b for b, _ in basis], [[v[k] for _, v in basis] for k in range(len(fs))]


def echelon(rows):
    """(k, u, u_inv): u unimodular, u rows in echelon form with its k nonzero rows first, and u_inv = u^-1.

    Euclid's row steps (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4): in each column, the row of least nonzero absolute value at
    or below the next pivot place moves there, and each row below takes away
    its floor quotient of it, until the pivot is the only nonzero entry left.
    u_inv mirrors each step on u's rows with its inverse on columns: a swap
    with the same swap, row i -= q row p with column p += q column i.
    """
    a = [list(row) for row in rows]
    n = len(a)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    k = 0
    for j in range(len(a[0]) if a else 0):
        live = [i for i in range(k, n) if a[i][j]]
        if not live:
            continue
        while live:
            p = min(live, key=lambda i: abs(a[i][j]))
            if p != k:
                a[k], a[p], u[k], u[p] = a[p], a[k], u[p], u[k]
                for row in u_inv:
                    row[k], row[p] = row[p], row[k]
            rest = []
            for i in range(k + 1, n):
                q = a[i][j] // a[k][j]  # nonzero exactly when a[i][j] is, as |a[k][j]| is least
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[k])]
                    for row in u_inv:
                        row[k] += q * row[i]
                    if a[i][j]:
                        rest.append(i)
            live = [k, *rest] if rest else []
        k += 1
    return k, u, u_inv


def subgroup_order(rows, n: int) -> int:
    """The order of the subgroup of (Z/n)^N that the integer rows of length N generate.

    It is n^N / [Z^N : L], L = <rows> + n Z^N, and the index is the product
    of the |pivots| of L's ``echelon`` form: L has rank N, so the pivot of
    row i lies in column i.
    """
    width = len(rows[0]) if rows else 0
    lattice = [*rows, *([n * (i == j) for j in range(width)] for i in range(width))]
    _k, u, _u_inv = echelon(lattice)
    index = prod(abs(sum(x * row[i] for x, row in zip(u[i], lattice))) for i in range(width))
    return n**width // index


def mth_root(f: RatFunc, basis, v, m: int):
    """(c, h) with f = c h^m, from f's valuation vector v on basis, every entry divisible by m.

    h = hnum/hden with hnum the product of b^(v_b/m) over v_b > 0 and hden
    over v_b < 0, both monic and coprime, so h is canonical as built and the
    answer is deterministic.  It is checked as f.num hden^m = c hnum^m f.den
    with c = lc(f.num).
    """
    if any(e % m for e in v):
        raise ValueError("the valuation vector is not divisible by m")
    one = Poly.one(f.parent.cyclo)
    hnum, hden = one, one
    for b, e in zip(basis, v):
        if e > 0:
            hnum = hnum * b ** (e // m)
        elif e < 0:
            hden = hden * b ** (-e // m)
    c = f.num.leading_coeff()
    lhs = f.num * hden**m if hden.degree > 0 else f.num
    rhs = hnum**m * c
    if f.den.degree > 0:
        rhs = rhs * f.den
    if not lhs == rhs:
        raise SelfCheckError("power detection produced a non-constant cofactor")
    return c, _ratfunc(f.parent, hnum, hden)


def mth_power_up_to_constant(f: RatFunc, m: int):
    """Decide f = c * h^m with c in Q(w): (c, h) from ``mth_root``, or None when m does not divide f's vector."""
    basis, (v,) = valuations(f)
    if m < 1:
        raise ValueError("m must be positive")
    return None if any(e % m for e in v) else mth_root(f, basis, v, m)


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
    w_inv = c.parent.omega_powers[n - 1]
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


def kummer_vahlen_certify(alpha: RatFunc, m: int) -> int:
    """Certify z^m - alpha irreducible over Q(w)(t); return m / gcd(m, g), its degree over kbar(t), or raise.

    Classical criterion: alpha not in k^p for every prime p | m and, when
    4 | m, alpha not in -4 k^4.  alpha = c h^p exactly when p divides the gcd
    g of alpha's valuation vector, with c = lc(alpha.num), and c is decided by
    ``_constant_is_power``.  For 4 | m the p = 2 test has already shown that
    alpha is no square.  When also 4 | n, i lies in Q(w_n) and
    -4 = (1 + i)^4, so alpha in -4 k^4 would make alpha a 4th power, hence
    a square: nothing is left to test.  Otherwise, when 4 | g, c/(-4) is
    tested for a 4th power in the same way.
    """
    if alpha.is_zero():
        raise ReducibleRadicandError("radicand must be nonzero")
    basis, (v,) = valuations(alpha)
    g = gcd(*v)
    for p in _prime_factors(m):
        if g % p == 0:
            c, _h = mth_root(alpha, basis, v, p)
            if _constant_is_power(c, p):
                raise ReducibleRadicandError(f"radicand is a {p}-th power in the base field (z^{m} - a reducible)")
    if m % 4 == 0 and alpha.parent.cyclo.m % 4 != 0 and g % 4 == 0:
        c, _h = mth_root(alpha, basis, v, 4)
        if _constant_is_power(c / (-4), 4):
            raise ReducibleRadicandError("radicand lies in -4 k^4 (z^m - a reducible for 4 | m)")
    return m // gcd(m, g)


def certify_power_free_over_kummer(tower, degree: int, beta: RatFunc, big_m: int) -> int:
    """Certify z^M - beta irreducible over the Kummer tower E; return E(beta^(1/M))'s degree over kbar(t).

    ``tower`` lists E's steps (a_i, n_i), a_i in Q(w)(t), bottom step first,
    and ``degree`` is [E kbar : kbar(t)], kbar the algebraic closure of Q(w).
    kbar(t) holds every root of unity, so (Lang, Algebra, ch. VI 8) that is
    the ``subgroup_order`` of the rows (n / n_i) v(a_i) in (Z/n)^N,
    n = lcm n_i: all roots of a squarefree basis element share its column.
    [E(beta^(1/M)) : E] >= [E kbar(beta^(1/M)) : E kbar], so beta's row
    multiplying the degree by M certifies the step.
    """
    steps = [*tower, (beta, big_m)]
    n = lcm(*(e for _, e in steps))
    _basis, vectors = valuations(*(a for a, _ in steps))
    order = subgroup_order([[n // e * x for x in v] for v, (_, e) in zip(vectors, steps)], n)
    if order != degree * big_m:
        raise ReducibleRadicandError(
            f"cannot certify z^{big_m} - a irreducible over the Kummer tower "
            f"(degree {order // degree} of {big_m} over kbar(t))"
        )
    return order
