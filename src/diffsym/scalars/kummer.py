"""Kummer extensions E = F(xi), xi^m = alpha, with the induced derivation.

The unique derivation extending the base one satisfies
delta_E(xi) = delta(alpha)/(m*alpha) * xi; this is checked at construction
together with an irreducibility certificate for z^m - alpha.
"""

from __future__ import annotations

from .elem import FieldElem
from .polys import Poly, poly_extended_gcd
from .powers import (
    ReducibleRadicandError,
    certify_power_free_over_kummer,
    kummer_vahlen_certify,
)
from .ratfunc import RatFuncField


class KummerField:
    """F(xi) with xi^m = alpha; base F is Q(w)(t) or another Kummer field."""

    def __init__(self, base, alpha, m: int, gen_name: str = "xi"):
        alpha = base.coerce(alpha)
        if alpha.is_zero():
            raise ReducibleRadicandError("radicand must be nonzero")
        if m < 2:
            raise ValueError("extension degree must be at least 2")
        self.base = base
        self.alpha = alpha
        self.m = m
        self.gen_name = gen_name
        self._certify_irreducible()
        # delta_E(xi) = delta(alpha)/(m*alpha) * xi
        self.gen_rate = alpha.derive() / (alpha * m)
        self._check_derivation_consistency()
        self._generators = {gen_name: self.gen()}
        for name, g in base.generators().items():
            self._generators.setdefault(name, self.coerce(g))

    # -- construction checks -------------------------------------------

    def _certify_irreducible(self):
        base = self.base
        if isinstance(base, RatFuncField):
            kummer_vahlen_certify(self.alpha, self.m)
            return
        if isinstance(base, KummerField) and isinstance(base.base, RatFuncField):
            # alpha is a KummerElem over the bottom field Q(w)(t)
            if not self.alpha.is_base():
                raise ReducibleRadicandError(
                    "can only certify tower radicands that come from the bottom field"
                )
            certify_power_free_over_kummer(base.alpha, base.m, self.alpha.base_value(), self.m)
            return
        raise ReducibleRadicandError("unsupported tower shape for irreducibility check")

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

    def generators(self) -> dict:
        """Name to element: this field's generator, then the base's generators."""
        return self._generators

    def coerce(self, x) -> "KummerElem":
        if isinstance(x, KummerElem) and (x.parent is self or x.parent == self):
            return x
        coeffs = [self.base.zero()] * self.m
        coeffs[0] = self.base.coerce(x)
        return KummerElem(self, coeffs)

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
        """The inverse; closed form for a monomial c xi^k, extended Euclid otherwise.

        (c xi^k)^-1 is c^-1 for k = 0 and (c alpha)^-1 xi^(m-k) for k > 0,
        since xi^m = alpha.
        """
        support = [k for k, c in enumerate(self.coeffs) if not c.is_zero()]
        if not support:
            raise ZeroDivisionError("inverse of zero in a Kummer extension")
        if len(support) > 1:
            return self._inv_euclid()
        k = support[0]
        parent = self.parent
        coeffs = [parent.base.zero()] * parent.m
        if k == 0:
            coeffs[0] = self.coeffs[0].inv()
        else:
            coeffs[parent.m - k] = (self.coeffs[k] * parent.alpha).inv()
        return KummerElem(parent, coeffs)

    def _inv_euclid(self) -> "KummerElem":
        """The inverse mod z^m - alpha by the extended Euclidean algorithm."""
        base = self.parent.base
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
        # an element of the base field equals its base value
        if self.is_base():
            return hash(self.coeffs[0])
        return hash(("KummerElem", self.coeffs))
