"""Exact arithmetic in the cyclotomic field Q(w), w a primitive m-th root of unity.

Elements are residues of Q[x] mod the m-th cyclotomic polynomial Phi_m, whose
integer coefficients are computed once per m and checked by x^m = 1 on the
table of powers of x.  Q(w) is the bottom of the tower and imports no
polynomial layer; a field's ``zero()``, ``one()`` and ``coerce()`` and its
elements' ``is_zero()`` are the coefficient protocol that ``Poly`` reads, and
Q is Q(w_1).  Each element is stored as an integer vector over one common
denominator: ``num``, a tuple of deg(Phi_m) ints, and ``den``, an int > 0 with
gcd(den, num...) = 1, so the pair is canonical and zero is ((0, ..., 0), 1).

Arithmetic builds its results through ``_elem``, which stores the pair as
given; only the public ``CycloElem(parent, coeffs)`` converts and checks its
input.  Each field interns its zero() and one(), and ``_reduced`` returns
them for a result of 0 or 1, so computed constants are interned too.
Elements are immutable, so a sum with a
zero operand returns the other operand, a product with the interned one
(or zero), tested by identity, returns the other operand (or zero), the
negative of a zero (or of -1) is the interned zero (or one), and a rational
(from ``from_rational``, another conductor, a product of two rationals or the
polynomial layer's integer kernel) is built through ``_rational``, which
interns 0 and 1 too.

The constants that depend on m alone are built once per field:
``omega_powers``, w^0..w^(m-1) read off the table of x^j mod Phi_m (its
first entry is ``one()`` and its second ``omega()``), and ``inverse_gaps``,
the m - 1 inverses (1 - w^j)^-1, computed on first use.  Every other module
reads w^k and (1 - w^j)^-1 from these.

A product of two non-rational elements is a schoolbook convolution whose
high coefficients are folded back through the field's table of x^(d+k) mod
Phi_m, which has integer entries since Phi_m is monic in Z[x].  An inverse
is the product of the other Galois conjugates over the norm.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from ..errors import SelfCheckError
from .elem import Field, FieldElem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Phi_m's integer coefficients, lowest first: x^m - 1 by synthetic division by each Phi_d, d | m, d < m."""
    if m < 1:
        raise ValueError("m must be positive")
    p = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            phi = cyclotomic_polynomial(d)
            k = len(phi) - 1
            # Phi_d is monic: in place, p[k:] becomes the quotient and p[:k] the remainder
            for i in reversed(range(len(p) - k)):
                c = p[i + k]
                if c:
                    for j in range(k):
                        p[i + j] -= c * phi[j]
            if any(p[:k]):
                raise SelfCheckError(f"dividing x^{m} - 1 by Phi_{d} left a remainder")
            p = p[k:]
    return tuple(p)


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple:
    """x^j mod Phi_m for j = 0..max(m, 2d - 2) (d = deg Phi_m), each as d ints."""
    phi = cyclotomic_polynomial(m)
    d = len(phi) - 1
    xd = tuple(-c for c in phi[:d])  # x^d = -(p_0 + ... + p_(d-1) x^(d-1))
    row = (1,) + (0,) * (d - 1)
    table = []
    for _ in range(max(m + 1, 2 * d - 1)):
        table.append(row)
        top = row[-1]
        row = tuple((row[i - 1] if i else 0) + top * xd[i] for i in range(d))
    return tuple(table)


class CycloField(Field):
    """Descriptor for Q(w) = Q[x]/(Phi_m)."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m must be positive")
        self.m = m
        self.modulus = cyclotomic_polynomial(m)
        self.degree = d = len(self.modulus) - 1
        powers = _power_table(m)
        # construction-time sanity: x^m = 1 mod Phi_m, i.e. Phi_m divides x^m - 1
        if powers[m] != powers[0]:
            raise SelfCheckError("cyclotomic modulus does not divide x^m - 1")
        self._fold = powers[d : 2 * d - 1]  # x^(d+k) for k = 0..d-2
        self._wpow = powers[:m]  # w^j for j = 0..m-1
        # sigma_k: w -> w^k for the units k of Z/m other than 1
        self._conjugations = tuple(k for k in range(2, m) if gcd(k, m) == 1)
        self._zeros = (0,) * (d - 1)
        self._zero = _elem(self, (0,) + self._zeros, 1)
        self._one = _elem(self, (1,) + self._zeros, 1)
        self.omega_powers = (self._one,) + tuple(_elem(self, row, 1) for row in powers[1:m])
        self._omega = self.omega_powers[1 % m]
        self._name_generators({"w": self._omega})

    @cached_property
    def inverse_gaps(self) -> tuple:
        """(None, (1 - w)^-1, ..., (1 - w^(m-1))^-1): entry j is (1 - w^j)^-1, one norm each."""
        one = self._one
        return (None,) + tuple((one - w).inv() for w in self.omega_powers[1:])

    def from_rational(self, q) -> "CycloElem":
        """q as an element; 0 and 1 are the field's interned zero() and one()."""
        if type(q) is not int:
            q = Fraction(q)
            return _rational(self, q.numerator, q.denominator)
        return _rational(self, q, 1)

    def omega(self) -> "CycloElem":
        """The class of x, a primitive m-th root of unity."""
        return self._omega

    def coerce(self, x) -> "CycloElem":
        if isinstance(x, CycloElem):
            if x.parent is self or x.parent == self:
                return x
            if x.is_rational():
                return _rational(self, x.num[0], x.den)
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
    """An element num/den of Q(w), reduced mod Phi_m."""

    __slots__ = ("parent", "num", "den")

    def __init__(self, parent: CycloField, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != parent.degree:
            raise ValueError("coefficient vector has the wrong length")
        # the lcm of reduced denominators leaves num and den coprime
        den = lcm(*(c.denominator for c in coeffs))
        self.parent = parent
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, lowest power of w first."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return Fraction(self.num[0], self.den)

    def derive(self) -> "CycloElem":
        return self.parent._zero

    def __add__(self, other):
        parent = self.parent
        if type(other) is not CycloElem or other.parent is not parent:
            other = parent.coerce(other)
        # x + 0 = x: the operand is returned, since elements are immutable
        if not any(other.num):
            return self
        if not any(self.num):
            return other
        da, db = self.den, other.den
        if da == db:
            return _reduced(parent, [x + y for x, y in zip(self.num, other.num)], da)
        return _reduced(parent, [x * db + y * da for x, y in zip(self.num, other.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        num = self.num
        if num[0] in (0, -1) and self.den == 1 and not any(num[1:]):
            parent = self.parent
            return parent._one if num[0] else parent._zero
        return _elem(self.parent, tuple([-x for x in num]), self.den)

    def __mul__(self, other):
        parent = self.parent
        if type(other) is not CycloElem or other.parent is not parent:
            other = parent.coerce(other)
        # the interned 1 and 0 by identity: a test that costs no comparison of vectors
        if other is parent._one or self is parent._zero:
            return self
        if self is parent._one or other is parent._zero:
            return other
        a, b = self.num, other.num
        if not any(b[1:]):
            if not any(a[1:]):
                # two rationals, as when a constant in Q scales a polynomial in Q[t]
                return _rational(parent, a[0] * b[0], self.den * other.den)
            return _scaled(self, b[0], other.den)
        if not any(a[1:]):
            return _scaled(other, a[0], self.den)
        return _reduced(parent, _convolve(parent, a, b), self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "CycloElem":
        num, den = self.num, self.den
        if not any(num):
            raise ZeroDivisionError("inverse of zero in Q(w)")
        parent = self.parent
        if not any(num[1:]):
            n = num[0]
            if n == den:
                return parent._one
            return _elem(parent, (den if n > 0 else -den,) + parent._zeros, abs(n))
        # a = A/den and A * Q = N with N in Z, so 1/a = den * Q / N
        q, n = _conjugate_product(parent, num)
        if n < 0:
            den, n = -den, -n
        return _reduced(parent, [den * x for x in q], n)

    def norm(self) -> Fraction:
        """N(a) = the product of the Galois conjugates sigma_k(a), k in (Z/m)*; a rational."""
        if not any(self.num):
            return Fraction(0)
        _, n = _conjugate_product(self.parent, self.num)
        return Fraction(n, self.den**self.parent.degree)

    def _key(self):
        return self.num, self.den

    def __hash__(self):
        # a rational equals the same rational in every Q(w), and the Fraction itself
        if self.is_rational():
            return hash(self.num[0]) if self.den == 1 else hash(Fraction(self.num[0], self.den))
        return hash((self.parent.m, self.num, self.den))


_new = object.__new__


def _elem(parent: CycloField, num: tuple, den: int) -> CycloElem:
    """The trusted constructor: num (deg(Phi_m) ints) and den > 0 are coprime, stored as is."""
    e = _new(CycloElem)
    e.parent = parent
    e.num = num
    e.den = den
    return e


def _reduced(parent: CycloField, num: list, den: int) -> CycloElem:
    """num/den for den > 0, divided by gcd(den, num...); a 0 or 1 is the interned zero() or one()."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    # a zero reduces to den 1, so both constants have den 1
    if den == 1 and num[0] in (0, 1) and not any(num[1:]):
        return parent._one if num[0] else parent._zero
    return _elem(parent, tuple(num), den)


def _rational(parent: CycloField, n: int, d: int) -> CycloElem:
    """n/d for ints n and d > 0, in lowest terms; a 0 or 1 is the interned zero() or one()."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    if d == 1 and n in (0, 1):
        return parent._one if n else parent._zero
    return _elem(parent, (n,) + parent._zeros, d)


def _scaled(x: CycloElem, qn: int, qd: int) -> CycloElem:
    """x * (qn/qd) for a rational qn/qd."""
    if not qn:
        return x.parent._zero
    if qn == qd:
        return x
    return _reduced(x.parent, [c * qn for c in x.num], x.den * qd)


def _convolve(parent: CycloField, a: tuple, b: tuple) -> list:
    """The integer vector of a * b mod Phi_m, for integer vectors a and b."""
    d = parent.degree
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    out = prod[:d]
    for c, row in zip(prod[d:], parent._fold):
        if c:
            for i, f in enumerate(row):
                if f:
                    out[i] += c * f
    return out


def _conjugate_product(parent: CycloField, a: tuple):
    """(Q, N) for a nonzero integer vector a: Q is the product of sigma_k(a) over the
    units k != 1 of Z/m, and a * Q = N is the norm of a, a nonzero integer."""
    m, d, wpow = parent.m, parent.degree, parent._wpow
    q = None
    for k in parent._conjugations:
        s = [0] * d
        for i, x in enumerate(a):
            if x:
                for j, f in enumerate(wpow[i * k % m]):
                    if f:
                        s[j] += x * f
        q = s if q is None else _convolve(parent, q, s)
    if q is None:
        q = [1] + [0] * (d - 1)
    n = _convolve(parent, a, q)
    if not n[0] or any(n[1:]):
        raise SelfCheckError("the norm of a nonzero cyclotomic element is not a nonzero rational")
    return q, n[0]
