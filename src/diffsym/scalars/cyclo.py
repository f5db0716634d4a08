"""Exact arithmetic in the cyclotomic field Q(w), w a primitive m-th root of unity.

Elements are residues of Q[x] mod the m-th cyclotomic polynomial Phi_m, stored
as coefficient vectors of length deg(Phi_m).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .elem import FieldElem
from .polys import Poly, QQ, poly_extended_gcd


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> Poly:
    """Phi_m over Q, computed by exact division of x^m - 1 by the proper Phi_d."""
    if m < 1:
        raise ValueError("m must be positive")
    xm1 = Poly(QQ, [-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            xm1 = xm1.exact_div(cyclotomic_polynomial(d))
    return xm1


class CycloField:
    """Descriptor for Q(w) = Q[x]/(Phi_m)."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m must be positive")
        self.m = m
        self.modulus = cyclotomic_polynomial(m)
        self.degree = self.modulus.degree
        # construction-time sanity: Phi_m divides x^m - 1
        xm1 = Poly(QQ, [-1] + [0] * (m - 1) + [1])
        if not (xm1 % self.modulus).is_zero():
            raise AssertionError("cyclotomic modulus does not divide x^m - 1")

    def zero(self) -> "CycloElem":
        return CycloElem(self, [Fraction(0)] * self.degree)

    def one(self) -> "CycloElem":
        return self.from_rational(Fraction(1))

    def from_rational(self, q) -> "CycloElem":
        coeffs = [Fraction(0)] * self.degree
        coeffs[0] = Fraction(q)
        return CycloElem(self, coeffs)

    def omega(self) -> "CycloElem":
        """The class of x, a primitive m-th root of unity."""
        if self.degree == 1:
            # Phi_1 = x - 1, Phi_2 = x + 1: omega is 1 resp. -1
            return self.from_rational(-self.modulus.coeff(0))
        coeffs = [Fraction(0)] * self.degree
        coeffs[1] = Fraction(1)
        return CycloElem(self, coeffs)

    def from_poly(self, p: Poly) -> "CycloElem":
        r = p % self.modulus
        coeffs = [Fraction(0)] * self.degree
        for i, c in enumerate(r.coeffs):
            coeffs[i] = c
        return CycloElem(self, coeffs)

    def coerce(self, x) -> "CycloElem":
        if isinstance(x, CycloElem):
            if x.parent == self:
                return x
            if x.is_rational():
                return self.from_rational(x.rational_value())
            raise TypeError("cyclotomic element from a different conductor")
        if isinstance(x, (int, Fraction)):
            return self.from_rational(x)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.m == self.m

    def __hash__(self):
        return hash(("CycloField", self.m))

    def __repr__(self):
        return f"Q(w_{self.m})"


class CycloElem(FieldElem):
    """An element of Q(w), reduced mod Phi_m."""

    __slots__ = ("parent", "coeffs")

    def __init__(self, parent: CycloField, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != parent.degree:
            raise ValueError("coefficient vector has the wrong length")
        self.parent = parent
        self.coeffs = tuple(coeffs)

    def _poly(self) -> Poly:
        return Poly(QQ, list(self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.coeffs[0]

    def derive(self) -> "CycloElem":
        return self.parent.zero()

    def __add__(self, other):
        other = self._coerce_other(other)
        return CycloElem(self.parent, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloElem(self.parent, [-a for a in self.coeffs])

    def __mul__(self, other):
        other = self._coerce_other(other)
        if other.is_rational():
            q = other.coeffs[0]
            return CycloElem(self.parent, [a * q for a in self.coeffs])
        if self.is_rational():
            q = self.coeffs[0]
            return CycloElem(self.parent, [a * q for a in other.coeffs])
        return self.parent.from_poly(self._poly() * other._poly())

    __rmul__ = __mul__

    def inv(self) -> "CycloElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(w)")
        if self.is_rational():
            return self.parent.from_rational(1 / self.coeffs[0])
        g, s, _ = poly_extended_gcd(self._poly(), self.parent.modulus)
        if g.degree != 0:
            raise AssertionError("cyclotomic modulus is not coprime to a nonzero element")
        return self.parent.from_poly(s)

    def _key(self):
        return self.coeffs

    def __hash__(self):
        # a rational equals the same rational in every Q(w), and the Fraction itself
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.parent.m, self.coeffs))
