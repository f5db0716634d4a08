"""Dense univariate polynomials over a field of the exact scalar tower.

Coefficients follow one protocol: the field descriptor provides ``zero()``,
``one()`` and ``coerce()``, and each coefficient is an element of the tower
that implements the usual arithmetic operators and answers ``is_zero()``.
Q itself is Q(w_1), ``CycloField(1)``.  Everything here is exact: no floats, ever.

Arithmetic builds its results through ``_poly``, which only trims trailing
zeros, since sums and products of field elements are already field elements;
only the public ``Poly(field, coeffs)`` coerces each coefficient.  A product
runs over the supports of its factors: no product or sum is taken for a zero
coefficient, and a product with the one polynomial (its coefficient the
field's interned one) returns the other factor.
"""

from __future__ import annotations

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
        other = self._coerce_other(other)
        longer, a, b = self, self.coeffs, other.coeffs
        if len(a) < len(b):
            longer, a, b = other, b, a
        if len(b) <= 1:
            if not b:
                return _poly(field, [])
            c, one = b[0], field.one()
            # the one polynomial, by identity with the field's interned one
            if c is one:
                return longer
            if len(a) == 1 and a[0] is one:
                return other
            return _poly(field, [x * c for x in a])
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

    __rmul__ = __mul__

    def _one(self):
        return Poly.one(self.field)

    def inv(self):
        raise ValueError("negative power of a polynomial")

    def __divmod__(self, other):
        other = self._coerce_other(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [self.field.zero()] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        one = self.field.one()
        lead = other.leading_coeff()
        # a monic divisor, the common case, takes no inverse and no product by it
        dlead_inv = None if lead == one else one / lead
        dd = other.degree
        low = other.coeffs[:dd]
        while len(rem) > dd:
            # the leading term cancels exactly, so it is dropped, not computed
            c = rem.pop()
            if dlead_inv is not None:
                c = c * dlead_inv
            k = len(rem) - dd
            q[k] = c
            c = -c
            for i, b in enumerate(low):
                rem[k + i] = rem[k + i] + c * b
            while rem and rem[-1].is_zero():
                rem.pop()
        return _poly(self.field, q), _poly(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
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


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm, 1 at the first nonzero constant remainder."""
    while b.coeffs:
        if len(b.coeffs) == 1:
            return Poly.one(b.field)
        a, b = b, a % b
    return a.monic() if a.coeffs else a


def poly_extended_gcd(a: Poly, b: Poly):
    """Return (g, s, t) with s*a + t*b = g, g monic (or zero)."""
    field = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(field), Poly.zero(field)
    t0, t1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lc = r0.leading_coeff()
    inv = field.one() / lc
    return r0.monic(), s0 * inv, t0 * inv


def squarefree_decompose(p: Poly):
    """Yun's algorithm: p = lc * prod q_j^j with q_j monic squarefree coprime.

    Returns the list of (q_j, j) with deg q_j >= 1; characteristic 0 only.
    A squarefree p, gcd(p, p') = 1, is [(p, 1)] with no loop, and a step
    whose q_j is 1 divides nothing.
    """
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
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


def coprime_basis(polys):
    """GCD-free basis: pairwise coprime monic polynomials generating the input.

    Every input polynomial is (up to a constant) a product of powers of basis
    elements.  Degree-0 inputs are dropped.
    """
    basis = []
    stack = [q.monic() for q in polys if q.degree > 0]
    while stack:
        p = stack.pop()
        if p.degree <= 0:
            continue
        for b in basis:
            g = poly_gcd(p, b)
            if g.degree > 0:
                basis.remove(b)
                stack.extend([g, b.exact_div(g), p.exact_div(g)])
                break
        else:
            basis.append(p)
    return basis
