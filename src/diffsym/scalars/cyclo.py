"""Exact arithmetic in the cyclotomic field Q(w), w a primitive m-th root of unity.

Elements are residues of Q[x] mod the m-th cyclotomic polynomial Phi_m, stored
as coefficient vectors of length deg(Phi_m).

Arithmetic builds its results through ``_elem``, which stores a tuple of
``Fraction`` as given; only the public ``CycloElem(parent, coeffs)`` converts
and checks its input.  A product of two non-rational elements is a schoolbook
convolution whose high coefficients are folded back through the field's table
of x^(d+k) mod Phi_m.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add

from .elem import FieldElem
from .polys import Poly, QQ, poly_extended_gcd

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


@lru_cache(maxsize=None)
def _fold_table(m: int) -> tuple:
    """x^(d+k) mod Phi_m for k = 0..d-2 (d = deg Phi_m), each as d Fractions."""
    phi = cyclotomic_polynomial(m)
    d = phi.degree
    row = tuple(-c for c in phi.coeffs[:d])  # x^d = -(p_0 + ... + p_(d-1) x^(d-1))
    table = []
    for _ in range(d - 1):
        table.append(row)
        top = row[-1]
        # x * row, with the x^d it produces folded back through table[0]
        row = tuple((row[i - 1] if i else _ZERO) + top * table[0][i] for i in range(d))
    return tuple(table)


class CycloField:
    """Descriptor for Q(w) = Q[x]/(Phi_m)."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m must be positive")
        self.m = m
        self.modulus = cyclotomic_polynomial(m)
        self.degree = d = self.modulus.degree
        # construction-time sanity: Phi_m divides x^m - 1
        xm1 = Poly(QQ, [-1] + [0] * (m - 1) + [1])
        if not (xm1 % self.modulus).is_zero():
            raise AssertionError("cyclotomic modulus does not divide x^m - 1")
        self._fold = _fold_table(m)
        self._zeros = (_ZERO,) * (d - 1)
        self._zero = _elem(self, (_ZERO,) + self._zeros)
        self._one = _elem(self, (_ONE,) + self._zeros)
        if d == 1:
            # Phi_1 = x - 1, Phi_2 = x + 1: omega is 1 resp. -1
            self._omega = self.from_rational(-self.modulus.coeff(0))
        else:
            self._omega = _elem(self, (_ZERO, _ONE) + self._zeros[1:])

    def zero(self) -> "CycloElem":
        return self._zero

    def one(self) -> "CycloElem":
        return self._one

    def from_rational(self, q) -> "CycloElem":
        return _elem(self, (q if type(q) is Fraction else Fraction(q),) + self._zeros)

    def omega(self) -> "CycloElem":
        """The class of x, a primitive m-th root of unity."""
        return self._omega

    def coerce(self, x) -> "CycloElem":
        if isinstance(x, CycloElem):
            if x.parent is self or x.parent == self:
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
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.coeffs[0]

    def derive(self) -> "CycloElem":
        return self.parent._zero

    def __add__(self, other):
        parent = self.parent
        if type(other) is not CycloElem or other.parent is not parent:
            other = parent.coerce(other)
        return _elem(parent, tuple(map(add, self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return _elem(self.parent, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        parent = self.parent
        if type(other) is not CycloElem or other.parent is not parent:
            other = parent.coerce(other)
        a, b = self.coeffs, other.coeffs
        if not any(b[1:]):
            return _scaled(parent, a, b[0])
        if not any(a[1:]):
            return _scaled(parent, b, a[0])
        d = parent.degree
        prod = [None] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        p = prod[i + j]
                        prod[i + j] = x * y if p is None else p + x * y
        out = prod[:d]
        for c, row in zip(prod[d:], parent._fold):
            if c:
                for i, f in enumerate(row):
                    if f:
                        p = out[i]
                        out[i] = c * f if p is None else p + c * f
        return _elem(parent, tuple(_ZERO if c is None else c for c in out))

    __rmul__ = __mul__

    def inv(self) -> "CycloElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(w)")
        parent = self.parent
        if self.is_rational():
            return parent.from_rational(1 / self.coeffs[0])
        g, s, _ = poly_extended_gcd(self._poly(), parent.modulus)
        if g.degree != 0:
            raise AssertionError("cyclotomic modulus is not coprime to a nonzero element")
        # deg s < deg Phi_m, so s is already reduced
        return _elem(parent, tuple(s.coeff(i) for i in range(parent.degree)))

    def _key(self):
        return self.coeffs

    def __hash__(self):
        # a rational equals the same rational in every Q(w), and the Fraction itself
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.parent.m, self.coeffs))


_new = object.__new__


def _elem(parent: CycloField, coeffs: tuple) -> CycloElem:
    """The trusted constructor: coeffs is a tuple of deg(Phi_m) Fractions, stored as is."""
    e = _new(CycloElem)
    e.parent = parent
    e.coeffs = coeffs
    return e


def _scaled(parent: CycloField, coeffs: tuple, q: Fraction) -> CycloElem:
    """coeffs * q for a rational q."""
    if not q:
        return parent._zero
    if q == 1:
        return _elem(parent, coeffs)
    return _elem(parent, tuple(c * q for c in coeffs))
