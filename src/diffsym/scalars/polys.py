"""Dense univariate polynomials over a field of the exact scalar tower.

Coefficients follow one protocol: the field descriptor provides ``zero()``,
``one()`` and ``coerce()``, and each coefficient is an element of the tower
that implements the usual arithmetic operators and answers ``is_zero()``.
Q itself is Q(w_1), ``CycloField(1)``.  Everything here is exact: no floats, ever.

Arithmetic builds its results through ``_poly``, which only trims trailing
zeros, since sums and products of field elements are already field elements;
only the public ``Poly(field, coeffs)`` coerces each coefficient.  A product
with a zero factor is zero, a product with the one polynomial (its
coefficient the field's interned one) returns the other factor, and any
other product with a constant factor, or with an ``int`` or ``Fraction``,
which is not coerced, scales coefficient by coefficient.

Polynomials in Q[t] -- the field is a ``CycloField`` and every coefficient is
rational -- run on an integer kernel.  ``_integer_pair`` converts each operand
once to a vector of Python ints over a common denominator, and each result is
converted back once through the trusted ``CycloElem`` constructor, so a 0 or 1
coefficient is the field's interned one:

* any other product is one integer convolution;
* ``divmod`` pseudo-divides with one running scale (``_pseudo_divmod``), the
  kernel's only division loop, and ``exact_div`` is ``divmod`` with a check
  that nothing remains;
* ``poly_gcd`` is a primitive pseudo-remainder sequence on that loop's
  remainders (Knuth, TAOCP vol. 2, 4.6.1), and ``squarefree_decompose`` runs
  Yun's loop on primitive vectors, whose exact quotients are that loop's
  quotients: a divisor that divides in Z[t] never scales it (Gauss's lemma);
* ``poly_cancel(a, b)`` returns a/g and b/g for g = gcd(a, b), taking g and
  both cofactors on the same vectors; ``ratfunc.py`` cancels only through it.
  Associates, vectors of one length with lead(b) a = lead(a) b entry by
  entry, have g = a / lead(a), so their cofactors are the two leading
  coefficients, read with no remainder sequence.

The gcd over Q(w) of polynomials in Q[t] is their gcd over Q, and monic gcds,
Yun factors, quotients and remainders are unique, so the kernel gives the
polynomials the loops over the field give.  Any input with a non-rational
coefficient takes those loops: the product on the supports of both factors
(``_support_product``), long division (``_long_division``) and Euclid's gcd;
they are also the kernel's oracles.  Both gcd routes return 1 at the first
nonzero constant remainder.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .cyclo import CycloField, _rational
from .elem import FieldElem


class Poly(FieldElem):
    """Polynomial with coefficients in a field; coeffs[i] is the t^i coefficient."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = [field.coerce(c) for c in coeffs]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field):
        return _poly(field, [])

    @classmethod
    def one(cls, field):
        return _poly(field, [field.one()])

    @classmethod
    def gen(cls, field):
        return cls.monomial(field, 1)

    @classmethod
    def monomial(cls, field, i: int):
        """t^i for an integer i >= 0."""
        return _poly(field, [field.zero()] * i + [field.one()])

    @classmethod
    def constant(cls, field, c):
        return cls(field, [c])

    # -- basic structure ----------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coeff(self):
        if self.is_zero():
            return self.field.zero()
        return self.coeffs[-1]

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero()

    # -- arithmetic ----------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, Poly):
            if other.field is self.field or other.field == self.field:
                return other
            return Poly(self.field, other.coeffs)
        return Poly.constant(self.field, self.field.coerce(other))

    def __add__(self, other):
        other = self._coerce_other(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b) :])
        return _poly(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        field = self.field
        if type(other) is not Poly or other.field is not field:
            if type(other) is int or type(other) is Fraction:
                # a rational scales each coefficient, with no constant polynomial made for it
                if not other:
                    return _poly(field, [])
                return self if other == 1 else _poly(field, [x * other for x in self.coeffs])
            other = self._coerce_other(other)
        longer, shorter = self, other
        if len(self.coeffs) < len(other.coeffs):
            longer, shorter = other, self
        a, b = longer.coeffs, shorter.coeffs
        if len(b) <= 1:
            if not b:
                return _poly(field, [])
            c, one = b[0], field.one()
            # the one polynomial, by identity with the field's interned one
            if c is one:
                return longer
            if len(a) == 1 and a[0] is one:
                return shorter
            # a constant factor scales coefficient by coefficient, also in Q[t]: its
            # products of rationals cost less than a round trip through integer vectors
            return _poly(field, [x * c for x in a])
        pa = _integer_pair(longer)
        if pa is not None:
            pb = _integer_pair(shorter)
            if pb is not None:
                return _from_ints(field, _product_ints(pa[0], pb[0]), pa[1] * pb[1])
        return _support_product(field, a, b)

    __rmul__ = __mul__

    def _one(self):
        return Poly.one(self.field)

    def inv(self):
        raise ValueError("negative power of a polynomial")

    def __divmod__(self, other):
        other = self._coerce_other(other)
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.coeffs) < len(other.coeffs):
            return _poly(self.field, []), self
        pb = _integer_pair(other)
        if pb is not None:
            pa = _integer_pair(self)
            if pa is not None:
                (a, da), (b, db) = pa, pb
                # s a = q b + r over Z, so self = (q db / (s da)) other + r / (s da)
                q, r, s = _pseudo_divmod(a, b)
                den = s * da
                return _from_ints(self.field, [x * db for x in q], den), _from_ints(self.field, r, den)
        return _long_division(self, other)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        """self / other when other divides self; ValueError when the division leaves a remainder."""
        q, r = divmod(self, other)
        if r.coeffs:
            raise ValueError("division is not exact")
        return q

    def monic(self):
        if self.is_zero():
            return self
        lc = self.leading_coeff()
        if lc == self.field.one():
            return self
        inv = self.field.one() / lc
        return _poly(self.field, [c * inv for c in self.coeffs])

    def derivative(self):
        """Formal derivative with respect to the polynomial variable."""
        return _poly(self.field, [self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def _key(self):
        return self.coeffs

    def __hash__(self):
        # a constant equals its coefficient; p equals the rational function p/1
        if self.degree <= 0:
            return hash(self.coeff(0))
        return hash((self.coeffs, (self.field.one(),)))

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


_new = object.__new__


def _poly(field, coeffs: list) -> Poly:
    """The trusted constructor: coeffs are elements of field, stored once trailing zeros are trimmed."""
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    p = _new(Poly)
    p.field = field
    p.coeffs = tuple(coeffs)
    return p


def _support_product(field, a: tuple, b: tuple) -> Poly:
    """The product of coefficient tuples a and b over field, len(b) >= 2, on the supports of both:
    Q(w)[t]'s loop for a factor with a non-rational coefficient, and the oracle of the integer one."""
    # the shorter factor's support, listed once; a slot starts from its first product
    right = [(j, y) for j, y in enumerate(b) if not y.is_zero()]
    out = [None] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in right:
            prev = out[i + j]
            out[i + j] = x * y if prev is None else prev + x * y
    zero = field.zero()
    return _poly(field, [zero if c is None else c for c in out])


def _long_division(a: Poly, b: Poly):
    """(q, r) with a = q b + r and deg r < deg b, for b nonzero, by long division over the field:
    Q(w)[t]'s loop for an operand with a non-rational coefficient, and the oracle of the integer one."""
    field = a.field
    q = [field.zero()] * max(len(a.coeffs) - len(b.coeffs) + 1, 0)
    rem = list(a.coeffs)
    one = field.one()
    lead = b.leading_coeff()
    # a monic divisor, the common case, takes no inverse and no product by it
    dlead_inv = None if lead == one else one / lead
    dd = b.degree
    low = b.coeffs[:dd]
    while len(rem) > dd:
        # the leading term cancels exactly, so it is dropped, not computed
        c = rem.pop()
        if dlead_inv is not None:
            c = c * dlead_inv
        k = len(rem) - dd
        q[k] = c
        c = -c
        for i, y in enumerate(low):
            rem[k + i] = rem[k + i] + c * y
        while rem and rem[-1].is_zero():
            rem.pop()
    return _poly(field, q), _poly(field, rem)


def _integer_pair(p: Poly):
    """(ints, den) with p = ints / den, ints lowest first ([] for zero) and den > 0; None unless
    p's field is a CycloField and every coefficient of p is rational."""
    field = p.field
    if type(field) is not CycloField:
        return None
    zeros = field._zeros
    den = 1
    for c in p.coeffs:
        if c.num[1:] != zeros:
            return None
        d = c.den
        if d != 1 and den % d:
            den = lcm(den, d)
    if den == 1:
        return [c.num[0] for c in p.coeffs], 1
    return [c.num[0] * (den // c.den) for c in p.coeffs], den


def _from_ints(field: CycloField, v: list, den: int) -> Poly:
    """The polynomial v / den over field, for an integer vector v and an int den > 0."""
    return _poly(field, [_rational(field, x, den) for x in v])


def _primitive(v: list) -> list:
    """The nonzero trimmed integer vector v over its content, signed so that its leading entry is positive."""
    g = gcd(*v)
    if v[-1] < 0:
        g = -g
    return v if g == 1 else [x // g for x in v]


def _monic_from_ints(field: CycloField, v: list) -> Poly:
    """The monic polynomial over field proportional to the integer vector v, whose leading entry is positive."""
    return _from_ints(field, v, v[-1] if v else 1)


def _product_ints(a: list, b: list) -> list:
    """a * b for nonempty integer vectors, on the support of b."""
    right = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in right:
                out[i + j] += x * y
    return out


def _derivative_ints(v: list) -> list:
    return [i * x for i, x in enumerate(v)][1:]


def _gcd_ints(a: list, b: list) -> list:
    """The primitive gcd of integer vectors a and b ([] for two zeros): a primitive remainder
    sequence, [1] at the first nonzero constant remainder."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return [1]
        a, b = b, _pseudo_divmod(a, b)[1]
        if len(b) > 1:
            b = _primitive(b)
    return _primitive(a) if a else a


def _pseudo_divmod(a: list, b: list):
    """(q, r, s) with s a = q b + r, deg r < deg b and s > 0, for integer vectors a and b, b nonzero.

    One running scale s: each step scales the remainder and the quotient so far by |lead(b)|/g only,
    g = gcd(the remainder's leading entry, lead(b)), and s with them.
    """
    r = list(a)
    lead = b[-1]
    db = len(b) - 1
    low = b[:db]
    q = [0] * max(len(r) - db, 0)
    s = 1
    while len(r) > db:
        c = r.pop()
        if not c:
            continue
        g = gcd(c, lead)
        f, c = abs(lead) // g, c // g
        if lead < 0:
            c = -c
        if f != 1:
            r = [f * x for x in r]
            q = [f * x for x in q]
            s *= f
        k = len(r) - db
        q[k] = c
        for i, y in enumerate(low):
            if y:
                r[k + i] -= c * y
    while r and not r[-1]:
        r.pop()
    return q, r, s


def _exact_quotient(a: list, b: list) -> list:
    """a / b for integer vectors with b dividing a in Z[t], as a primitive b dividing a over Q does (Gauss's
    lemma): every leading entry met is then a multiple of lead(b), so s stays 1; ValueError otherwise."""
    q, r, s = _pseudo_divmod(a, b)
    if s != 1 or r:
        raise ValueError("division is not exact")
    return q


def _difference_ints(a: list, b: list) -> list:
    """a - b for integer vectors, trimmed."""
    out = [x - y for x, y in zip(a, b)]
    if len(a) > len(b):
        out.extend(a[len(b) :])
    else:
        out.extend(-y for y in b[len(a) :])
    while out and not out[-1]:
        out.pop()
    return out


def _yun_ints(p: list) -> list:
    """Yun's loop on a primitive integer vector p of degree >= 1: the (q_j, j), q_j primitive."""
    dp = _derivative_ints(p)
    g = _gcd_ints(p, dp)
    if len(g) == 1:
        return [(p, 1)]
    c = _exact_quotient(p, g)
    d = _difference_ints(_exact_quotient(dp, g), _derivative_ints(c))
    out = []
    i = 1
    while len(c) > 1:
        q = _gcd_ints(c, d)
        if len(q) > 1:
            out.append((q, i))
            c = _exact_quotient(c, q)
            d = _exact_quotient(d, q)
        d = _difference_ints(d, _derivative_ints(c))
        i += 1
    return out


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd, 1 at the first nonzero constant remainder: on integer vectors in Q[t], else Euclid's loop."""
    pb = _integer_pair(b)
    if pb is not None:
        if len(pb[0]) == 1:
            return Poly.one(b.field)
        pa = _integer_pair(a)
        if pa is not None:
            g = _gcd_ints(pa[0], pb[0])
            return Poly.one(b.field) if len(g) == 1 else _monic_from_ints(b.field, g)
    while b.coeffs:
        if len(b.coeffs) == 1:
            return Poly.one(b.field)
        a, b = b, a % b
    return a.monic() if a.coeffs else a


def poly_cancel(a: Poly, b: Poly):
    """(a / g, b / g) for g = poly_gcd(a, b), a and b not both zero; a and b themselves when g = 1.

    In Q[t], g and both cofactors come from the same integer vectors: g's primitive
    form divides each in Z[t], and the quotients are converted back once.
    """
    pa = _integer_pair(a)
    if pa is not None:
        pb = _integer_pair(b)
        if pb is not None:
            (va, da), (vb, db) = pa, pb
            if len(va) == 1 or len(vb) == 1:
                return a, b
            la, lb = va[-1], vb[-1]
            if len(va) == len(vb) and all(x * lb == y * la for x, y in zip(va, vb)):
                # associates, lb va = la vb: g = a / lc(a), so the cofactors are the leading coefficients
                field = a.field
                return _from_ints(field, [la], da), _from_ints(field, [lb], db)
            g = _gcd_ints(va, vb)
            if len(g) <= 1:
                return a, b
            # g / lead(g) is the monic gcd, so a / gcd = (va / g) lead(g) / da
            lead, field = g[-1], a.field
            return (
                _from_ints(field, [x * lead for x in _exact_quotient(va, g)], da),
                _from_ints(field, [x * lead for x in _exact_quotient(vb, g)], db),
            )
    g = poly_gcd(a, b)
    if g.degree <= 0:
        return a, b
    return a.exact_div(g), b.exact_div(g)


def squarefree_decompose(p: Poly):
    """Yun's algorithm: p = lc * prod q_j^j with q_j monic squarefree coprime.

    Returns the list of (q_j, j) with deg q_j >= 1; characteristic 0 only.
    A squarefree p, gcd(p, p') = 1, is [(p, 1)] with no loop, and a step
    whose q_j is 1 divides nothing.  A p in Q[t] runs the loop on integer vectors.
    """
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    pair = _integer_pair(p)
    if pair is not None:
        v = pair[0]
        if len(v) == 1:
            return []
        return [(_monic_from_ints(p.field, q), j) for q, j in _yun_ints(_primitive(v))]
    p = p.monic()
    out = []
    if p.degree == 0:
        return out
    dp = p.derivative()
    g = poly_gcd(p, dp)
    if g.degree == 0:
        return [(p, 1)]
    c = p.exact_div(g)
    d = dp.exact_div(g) - c.derivative()
    i = 1
    while c.degree > 0:
        q = poly_gcd(c, d)
        if q.degree > 0:
            out.append((q, i))
            c = c.exact_div(q)
            d = d.exact_div(q)
        d = d - c.derivative()
        i += 1
    return out
