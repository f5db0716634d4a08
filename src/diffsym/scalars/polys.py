"""Dense univariate polynomials over an arbitrary exact coefficient field.

The coefficient field is described by a small descriptor object providing
``zero()``, ``one()`` and ``coerce()``; coefficients themselves implement the
usual arithmetic operators.  Everything here is exact: no floats, ever.
"""

from __future__ import annotations

from fractions import Fraction

from .elem import FieldElem


def is_zero_elem(x) -> bool:
    """Zero test that works for Fractions, ints and our field elements."""
    if isinstance(x, (int, Fraction)):
        return x == 0
    return x.is_zero()


class RationalField:
    """Field descriptor for plain rationals (fractions.Fraction)."""

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class Poly(FieldElem):
    """Polynomial with coefficients in a field; coeffs[i] is the t^i coefficient."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = [field.coerce(c) for c in coeffs]
        while coeffs and is_zero_elem(coeffs[-1]):
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [field.one()])

    @classmethod
    def gen(cls, field):
        return cls(field, [field.zero(), field.one()])

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
            return other
        return Poly.constant(self.field, self.field.coerce(other))

    def __add__(self, other):
        other = self._coerce_other(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, [self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = self.field.coerce(other)
            return Poly(self.field, [a * c for a in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        out = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if is_zero_elem(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

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
        dlead_inv = self.field.one() / other.leading_coeff()
        dd = other.degree
        while len(rem) - 1 >= dd and rem:
            c = rem[-1] * dlead_inv
            k = len(rem) - 1 - dd
            q[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - c * b
            while rem and is_zero_elem(rem[-1]):
                rem.pop()
        return Poly(self.field, q), Poly(self.field, rem)

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
        return Poly(self.field, [c * inv for c in self.coeffs])

    def derivative(self):
        """Formal derivative with respect to the polynomial variable."""
        return Poly(self.field, [self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def _key(self):
        return self.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


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
    """
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    p = p.monic()
    out = []
    if p.degree == 0:
        return out
    dp = p.derivative()
    g = poly_gcd(p, dp)
    c = p.exact_div(g)
    d = dp.exact_div(g) - c.derivative()
    i = 1
    while c.degree > 0:
        q = poly_gcd(c, d)
        if q.degree > 0:
            out.append((q, i))
        c = c.exact_div(q)
        d = d.exact_div(q) - c.derivative()
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


def multiplicity(p: Poly, q: Poly) -> int:
    """Largest e with q^e | p (p nonzero, deg q >= 1)."""
    if p.is_zero():
        raise ValueError("multiplicity in the zero polynomial")
    e = 0
    while True:
        quo, rem = divmod(p, q)
        if not rem.is_zero():
            return e
        p = quo
        e += 1
