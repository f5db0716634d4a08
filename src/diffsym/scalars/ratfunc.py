"""The rational function field k = Q(w)(t) with derivation d/dt (or zero).

Canonical form: numerator and denominator coprime, denominator monic, content
kept in the numerator, so equality is a plain coefficient comparison.  Zero is
0/1, and a denominator of length 1 is the polynomial 1.

Arithmetic builds its results through ``_ratfunc``, which stores a pair that
is already canonical; only the public ``RatFunc(parent, num, den)`` cancels a
gcd and makes the denominator monic.  Sums and products are Henrici's (Knuth,
TAOCP vol. 2, 4.5.1): they take gcds of the operands' parts, which are smaller
than the gcd of the unreduced result, and none when a denominator is 1.  A
sum over one shared denominator b is (a + c)/b, and only gcd(a + c, b) is taken.
The derivative takes one gcd, g = gcd(b, b'), and its quotient rule over
b (b/g) is already reduced.

Every cancellation is one ``polys.poly_cancel(x, y)``, which returns x/g and
y/g for g = gcd(x, y), and x and y themselves when g = 1.  When both lie in
Q[t] it takes g and both cofactors on one pair of integer vectors, and with
the integer products of ``Poly`` a canonical form in Q[t] leads to the next
with no non-constant product, division or gcd over Q(w)[t].
"""

from __future__ import annotations

from .cyclo import CycloElem, CycloField
from .elem import Field, FieldElem
# poly_gcd is not called here; perfbench's tracer test looks it up in this module too
from .polys import Poly, _poly, poly_cancel, poly_gcd  # noqa: F401


class RatFuncField(Field):
    """Descriptor for Q(w)(t) with the derivation d/dt or the zero derivation."""

    def __init__(self, cyclo: CycloField, var: str = "t", derivation: str = "dt"):
        if derivation not in ("dt", "zero"):
            raise ValueError("derivation must be 'dt' or 'zero'")
        self.cyclo = cyclo
        self.var = var
        self.derivation = derivation
        self._one_poly = one = Poly.one(cyclo)
        self._zero = _ratfunc(self, Poly.zero(cyclo), one)
        self._one = _ratfunc(self, one, one)
        self._name_generators({var: self.gen()}, cyclo)

    @property
    def is_zero_derivation(self) -> bool:
        return self.derivation == "zero"

    def gen(self) -> "RatFunc":
        return _ratfunc(self, Poly.gen(self.cyclo), self._one_poly)

    def omega(self) -> "RatFunc":
        return self._constant(self.cyclo.omega())

    def _constant(self, c: CycloElem) -> "RatFunc":
        """c/1; Q(w)'s interned one and zero give this field's one() and zero()."""
        if c is self.cyclo._one:
            return self._one
        if c is self.cyclo._zero:
            return self._zero
        return _ratfunc(self, _poly(self.cyclo, [c]), self._one_poly)

    def from_poly(self, num: Poly, den: Poly | None = None) -> "RatFunc":
        if den is None:
            den = self._one_poly
        return RatFunc(self, num, den)

    def coerce(self, x) -> "RatFunc":
        # RatFunc is immutable, so an element of this field is returned as is
        if isinstance(x, RatFunc) and (x.parent is self or x.parent == self):
            return x
        if isinstance(x, Poly) and x.field == self.cyclo:
            return self.from_poly(x)
        return self._constant(self.cyclo.coerce(x))

    def __eq__(self, other):
        return (
            isinstance(other, RatFuncField)
            and other.cyclo == self.cyclo
            and other.var == self.var
            and other.derivation == self.derivation
        )

    def __hash__(self):
        return hash(("RatFuncField", self.cyclo.m, self.var, self.derivation))

    def __repr__(self):
        tag = "d/dt" if self.derivation == "dt" else "0"
        return f"Q(w_{self.cyclo.m})({self.var}; {tag})"


class RatFunc(FieldElem):
    """A rational function num/den over Q(w), kept in canonical form."""

    __slots__ = ("parent", "num", "den")

    def __init__(self, parent: RatFuncField, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = parent._one_poly
        else:
            if num.degree > 0 and den.degree > 0:
                num, den = poly_cancel(num, den)
            lc = den.leading_coeff()
            if not lc == parent.cyclo.one():
                inv = lc.inv()
                num = num * inv
                den = den * inv
        self.parent = parent
        self.num = num
        self.den = den

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self) -> CycloElem:
        if not self.is_constant():
            raise ValueError("not a constant")
        if self.is_zero():
            return self.parent.cyclo.zero()
        return self.num.coeff(0)

    def degree(self):
        """deg(num) - deg(den); None for the zero function."""
        if self.is_zero():
            return None
        return self.num.degree - self.den.degree

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        parent = self.parent
        if type(other) is not RatFunc or other.parent is not parent:
            other = parent.coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if not c.coeffs:
            return self
        if not a.coeffs:
            return other
        if len(b.coeffs) == 1 and len(d.coeffs) == 1:
            return _ratfunc(parent, a + c, b)
        if len(b.coeffs) == 1:
            # a + c/d with gcd(c, d) = 1 is (a d + c)/d, already reduced
            return _ratfunc(parent, a * d + c, d)
        if len(d.coeffs) == 1:
            return _ratfunc(parent, a + c * b, b)
        if b.coeffs == d.coeffs:
            # a/b + c/b = (a + c)/b, and only gcd(a + c, b) can cancel
            num = a + c
            if not num.coeffs:
                return parent._zero
            num, b = poly_cancel(num, b)
            return _ratfunc(parent, num, b)
        b1, d1 = poly_cancel(b, d)
        if b1 is b:
            return _ratfunc(parent, a * d + c * b, b * d)
        # b = g b', d = g d': the sum is (a d' + c b')/(b' d), whose numerator is
        # prime to b' and d', so its gcd with d is its gcd with g, the only part that can cancel
        num = a * d1 + c * b1
        if not num.coeffs:  # x + (-x)
            return parent._zero
        num, d = poly_cancel(num, d)
        return _ratfunc(parent, num, b1 * d)

    __radd__ = __add__

    def __neg__(self):
        return _ratfunc(self.parent, -self.num, self.den)

    def __mul__(self, other):
        parent = self.parent
        if type(other) is not RatFunc or other.parent is not parent:
            other = parent.coerce(other)
        # a zero or the field's one takes no polynomial product
        one = parent._one
        if self is one:
            return other
        if other is one:
            return self
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a.coeffs:
            return self
        if not c.coeffs:
            return other
        # (a/b)(c/d) = (a/g1)(c/g2) / ((b/g2)(d/g1)) with g1 = gcd(a, d), g2 = gcd(c, b)
        if len(a.coeffs) > 1 and len(d.coeffs) > 1:
            a, d = poly_cancel(a, d)
        if len(c.coeffs) > 1 and len(b.coeffs) > 1:
            c, b = poly_cancel(c, b)
        return _ratfunc(parent, a * c, b * d)

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        num, den = self.num, self.den
        if not num.coeffs:
            raise ZeroDivisionError("inverse of zero")
        lc = num.coeffs[-1]
        if lc == self.parent.cyclo.one():
            return _ratfunc(self.parent, den, num)
        s = lc.inv()
        return _ratfunc(self.parent, den * s, num * s)

    def derive(self) -> "RatFunc":
        """Quotient-rule derivative; zero if the field carries the zero derivation."""
        parent = self.parent
        num, den = self.num, self.den
        if parent.is_zero_derivation or not num.coeffs:
            return parent._zero
        if len(den.coeffs) == 1:
            # den = 1, so num'/1 is canonical; a constant derives to the interned 0
            if len(num.coeffs) == 1:
                return parent._zero
            return _ratfunc(parent, num.derivative(), den)
        # with g = gcd(b, b'), (a/b)' = (a' (b/g) - a (b'/g)) / (b (b/g)); in characteristic 0
        # a factor p^e of b gives exactly p^(e+1) in the denominator, so this is reduced
        rad, dden = poly_cancel(den, den.derivative())
        return _ratfunc(parent, num.derivative() * rad - num * dden, den * rad)

    def _key(self):
        return self.num.coeffs, self.den.coeffs

    def __hash__(self):
        # a constant equals its value in Q(w)
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.num.coeffs, self.den.coeffs))


_new = object.__new__


def _ratfunc(parent: RatFuncField, num: Poly, den: Poly) -> RatFunc:
    """The trusted constructor: num and den are coprime, den is monic, and den = 1 when num = 0."""
    f = _new(RatFunc)
    f.parent = parent
    f.num = num
    f.den = den
    return f
