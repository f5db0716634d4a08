"""Kummer extensions E = F(xi), xi^m = alpha, with the induced derivation.

The unique derivation extending the base one satisfies
delta_E(xi) = delta(alpha)/(m*alpha) * xi; this is checked at construction
together with an irreducibility certificate for z^m - alpha.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycloElem
from .elem import FieldElem
from .polys import Poly, poly_extended_gcd
from .powers import (
    ReducibleRadicandError,
    certify_power_free_over_kummer,
    kummer_vahlen_certify,
)
from .ratfunc import RatFunc, RatFuncField


class KummerField:
    """F(xi) with xi^m = alpha; base F is Q(w)(t) or another Kummer field."""

    def __init__(self, base, alpha, m: int, gen_name: str = "xi", check: bool = True):
        alpha = base.coerce(alpha)
        if alpha.is_zero():
            raise ReducibleRadicandError("radicand must be nonzero")
        if m < 2:
            raise ValueError("extension degree must be at least 2")
        self.base = base
        self.alpha = alpha
        self.m = m
        self.gen_name = gen_name
        if check:
            self._certify_irreducible()
        # delta_E(xi) = delta(alpha)/(m*alpha) * xi
        self.gen_rate = alpha.derive() / (alpha * m)
        if check:
            self._check_derivation_consistency()

    # -- construction checks -------------------------------------------

    def _certify_irreducible(self):
        base = self.base
        if isinstance(base, RatFuncField):
            kummer_vahlen_certify(self.alpha, self.m)
            return
        if isinstance(base, KummerField) and isinstance(base.base, RatFuncField):
            bottom = self._bottom_radicand()
            if bottom is None:
                raise ReducibleRadicandError(
                    "can only certify tower radicands that come from the bottom field"
                )
            certify_power_free_over_kummer(base.alpha, base.m, bottom, self.m)
            return
        raise ReducibleRadicandError("unsupported tower shape for irreducibility check")

    def _bottom_radicand(self):
        """self.alpha as an element of the bottom rational function field, if possible."""
        a = self.alpha
        if isinstance(a, RatFunc):
            return a
        if isinstance(a, KummerElem):
            if any(not c.is_zero() for c in a.coeffs[1:]):
                return None
            inner = a.coeffs[0]
            if isinstance(inner, RatFunc):
                return inner
        return None

    def _check_derivation_consistency(self):
        # m * xi^(m-1) * delta_E(xi) must equal delta(alpha)
        xi = self.gen()
        lhs = (xi ** (self.m - 1) * xi.derive()) * self.m
        rhs = self.coerce(self.alpha.derive())
        if not lhs == rhs:
            raise AssertionError("Kummer derivation rule is inconsistent")

    # -- descriptor protocol ---------------------------------------------

    @property
    def cyclo(self):
        return self.base.cyclo

    @property
    def is_zero_derivation(self) -> bool:
        return self.base.is_zero_derivation

    def zero(self) -> "KummerElem":
        return KummerElem(self, [self.base.zero()] * self.m)

    def one(self) -> "KummerElem":
        coeffs = [self.base.zero()] * self.m
        coeffs[0] = self.base.one()
        return KummerElem(self, coeffs)

    def gen(self) -> "KummerElem":
        coeffs = [self.base.zero()] * self.m
        coeffs[1] = self.base.one()
        return KummerElem(self, coeffs)

    def omega(self) -> "KummerElem":
        return self.coerce(self.cyclo.omega())

    def coerce(self, x) -> "KummerElem":
        if isinstance(x, KummerElem):
            if x.parent is self or x.parent == self:
                return x
            # element of a lower tier wrapped in another tower: re-coerce coeffs
            try:
                base_val = self.base.coerce(x)
                coeffs = [self.base.zero()] * self.m
                coeffs[0] = base_val
                return KummerElem(self, coeffs)
            except TypeError:
                raise TypeError("Kummer element from an incompatible tower")
        if isinstance(x, (int, Fraction, CycloElem, RatFunc, Poly)):
            coeffs = [self.base.zero()] * self.m
            coeffs[0] = self.base.coerce(x)
            return KummerElem(self, coeffs)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def __eq__(self, other):
        return (
            isinstance(other, KummerField)
            and other.base == self.base
            and other.m == self.m
            and other.alpha == self.alpha
            and other.gen_name == self.gen_name
        )

    def __hash__(self):
        return hash(("KummerField", self.m, self.gen_name))

    def __repr__(self):
        return f"{self.base!r}({self.gen_name}; {self.gen_name}^{self.m}=...)"


class KummerElem(FieldElem):
    """Element on the basis 1, xi, ..., xi^(m-1) with base-field coefficients."""

    __slots__ = ("parent", "coeffs")

    def __init__(self, parent: KummerField, coeffs):
        coeffs = [parent.base.coerce(c) for c in coeffs]
        if len(coeffs) != parent.m:
            raise ValueError("coefficient vector has the wrong length")
        self.parent = parent
        self.coeffs = tuple(coeffs)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_base(self) -> bool:
        return all(c.is_zero() for c in self.coeffs[1:])

    def base_value(self):
        if not self.is_base():
            raise ValueError("element does not lie in the base field")
        return self.coeffs[0]

    def __add__(self, other):
        other = self._coerce_other(other)
        return KummerElem(self.parent, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return KummerElem(self.parent, [-a for a in self.coeffs])

    def __mul__(self, other):
        other = self._coerce_other(other)
        m = self.parent.m
        alpha = self.parent.alpha
        out = [self.parent.base.zero()] * m
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                k = i + j
                term = a * b
                if k >= m:
                    k -= m
                    term = term * alpha
                out[k] = out[k] + term
        return KummerElem(self.parent, out)

    __rmul__ = __mul__

    def inv(self) -> "KummerElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a Kummer extension")
        base = self.parent.base
        # invert mod z^m - alpha via the extended Euclidean algorithm
        modulus = Poly(base, [-self.parent.alpha] + [base.zero()] * (self.parent.m - 1) + [base.one()])
        me = Poly(base, list(self.coeffs))
        g, s, _ = poly_extended_gcd(me, modulus)
        if g.degree != 0:
            raise ZeroDivisionError("element is a zero divisor; radicand not irreducible?")
        coeffs = [s.coeff(i) for i in range(self.parent.m)]
        return KummerElem(self.parent, coeffs)

    def derive(self) -> "KummerElem":
        """Leibniz-compatible derivation: xi^i picks up i * gen_rate."""
        rate = self.parent.gen_rate
        out = []
        for i, c in enumerate(self.coeffs):
            term = c.derive()
            if i and not c.is_zero():
                term = term + c * rate * i
            out.append(term)
        return KummerElem(self.parent, out)

    def conjugate(self, j: int) -> "KummerElem":
        """The Galois twist xi -> w^j xi (coefficient-wise scaling)."""
        w = self.parent.cyclo.omega()
        out = []
        for i, c in enumerate(self.coeffs):
            out.append(c * self.parent.base.coerce(w ** ((i * j) % self.parent.cyclo.m)))
        return KummerElem(self.parent, out)

    def _key(self):
        return self.coeffs

    def __hash__(self):
        return hash(("KummerElem", self.coeffs))
