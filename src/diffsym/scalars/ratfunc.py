"""The rational function field k = Q(w)(t) with derivation d/dt (or zero).

Canonical form: numerator and denominator coprime, denominator monic, content
kept in the numerator, so equality is a plain coefficient comparison.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycloElem, CycloField
from .elem import FieldElem
from .polys import Poly, poly_gcd


class RatFuncField:
    """Descriptor for Q(w)(t) with the derivation d/dt or the zero derivation."""

    def __init__(self, cyclo: CycloField, var: str = "t", derivation: str = "dt"):
        if derivation not in ("dt", "zero"):
            raise ValueError("derivation must be 'dt' or 'zero'")
        self.cyclo = cyclo
        self.var = var
        self.derivation = derivation

    @property
    def is_zero_derivation(self) -> bool:
        return self.derivation == "zero"

    def zero(self) -> "RatFunc":
        return RatFunc(self, Poly.zero(self.cyclo), Poly.one(self.cyclo))

    def one(self) -> "RatFunc":
        return RatFunc(self, Poly.one(self.cyclo), Poly.one(self.cyclo))

    def gen(self) -> "RatFunc":
        return RatFunc(self, Poly.gen(self.cyclo), Poly.one(self.cyclo))

    def omega(self) -> "RatFunc":
        return self.from_poly(Poly.constant(self.cyclo, self.cyclo.omega()))

    def from_poly(self, num: Poly, den: Poly | None = None) -> "RatFunc":
        if den is None:
            den = Poly.one(self.cyclo)
        return RatFunc(self, num, den)

    def coerce(self, x) -> "RatFunc":
        if isinstance(x, RatFunc):
            # RatFunc is immutable, so an element of this field is returned as is
            if x.parent is self or x.parent == self:
                return x
            raise TypeError("rational function from another field or with another derivation")
        if isinstance(x, CycloElem):
            return self.from_poly(Poly.constant(self.cyclo, self.cyclo.coerce(x)))
        if isinstance(x, (int, Fraction)):
            return self.from_poly(Poly.constant(self.cyclo, self.cyclo.from_rational(x)))
        if isinstance(x, Poly) and x.field == self.cyclo:
            return self.from_poly(x)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

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
            den = Poly.one(parent.cyclo)
        else:
            if num.degree > 0 and den.degree > 0:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
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
        other = self._coerce_other(other)
        return RatFunc(self.parent, self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.parent, -self.num, self.den)

    def __mul__(self, other):
        other = self._coerce_other(other)
        return RatFunc(self.parent, self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.parent, self.den, self.num)

    def derive(self) -> "RatFunc":
        """Quotient-rule derivative; zero if the field carries the zero derivation."""
        if self.parent.is_zero_derivation:
            return self.parent.zero()
        dn = self.num.derivative()
        dd = self.den.derivative()
        return RatFunc(self.parent, dn * self.den - self.num * dd, self.den * self.den)

    def _key(self):
        return self.num.coeffs, self.den.coeffs

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))
