"""Differential polynomial rings F[x_0, ..., x_{n-1}] with prescribed d(x_i).

Two flavours are used by the splitting constructions:

* ``MonomialDiffField``: d(x_i) = c_i * x_i with rates c_i in the base field,
  so a monomial picks up the rate sum of its exponents (plus the base-field
  derivative of its coefficient).
* ``PolyDiffField`` with arbitrary polynomial images of the generators, used
  for the generic splitting field where d(x_ij) is a linear form.

Elements are finite sums of monomials with base-field coefficients; exponents
may be negative (Laurent monomials), but general division is not provided.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycloElem
from .elem import FieldElem
from .kummer import KummerElem
from .ratfunc import RatFunc


class PolyDiffField:
    """F[x_0..x_{n-1}] with a derivation given on each generator."""

    def __init__(self, base, names):
        self.base = base
        self.names = tuple(names)
        self.n = len(self.names)
        self._gen_derivs = [None] * self.n

    def set_gen_derivative(self, i: int, value: "PolyDiffElem"):
        self._gen_derivs[i] = self.coerce(value)

    def gen_derivative(self, i: int) -> "PolyDiffElem":
        v = self._gen_derivs[i]
        if v is None:
            raise ValueError(f"derivation of {self.names[i]} was never set")
        return v

    @property
    def cyclo(self):
        return self.base.cyclo

    @property
    def is_zero_derivation(self) -> bool:
        return False

    def zero(self) -> "PolyDiffElem":
        return PolyDiffElem(self, {})

    def one(self) -> "PolyDiffElem":
        return PolyDiffElem(self, {(0,) * self.n: self.base.one()})

    def gen(self, i: int) -> "PolyDiffElem":
        exps = [0] * self.n
        exps[i] = 1
        return PolyDiffElem(self, {tuple(exps): self.base.one()})

    def omega(self) -> "PolyDiffElem":
        return self.coerce(self.cyclo.omega())

    def coerce(self, x) -> "PolyDiffElem":
        if isinstance(x, PolyDiffElem):
            if x.parent is self:
                return x
            raise TypeError("element of a different polynomial differential ring")
        if isinstance(x, (int, Fraction, CycloElem, RatFunc, KummerElem)):
            c = self.base.coerce(x)
            if c.is_zero():
                return self.zero()
            return PolyDiffElem(self, {(0,) * self.n: c})
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def __repr__(self):
        return f"{self.base!r}[{', '.join(self.names)}]"


class MonomialDiffField(PolyDiffField):
    """F[x_i] with d(x_i) = rates[i] * x_i."""

    def __init__(self, base, names, rates):
        super().__init__(base, names)
        if len(rates) != self.n:
            raise ValueError("one rate per variable required")
        self.rates = tuple(base.coerce(r) for r in rates)
        for i in range(self.n):
            self.set_gen_derivative(i, self.gen(i).scale(self.rates[i]))


class PolyDiffElem(FieldElem):
    """Finite sum of monomials Prod x_i^{e_i} with base-field coefficients."""

    __slots__ = ("parent", "terms")

    def __init__(self, parent: PolyDiffField, terms: dict):
        clean = {}
        for exps, c in terms.items():
            c = parent.base.coerce(c)
            if not c.is_zero():
                clean[tuple(exps)] = c
        self.parent = parent
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, c) -> "PolyDiffElem":
        c = self.parent.base.coerce(c)
        return PolyDiffElem(self.parent, {e: v * c for e, v in self.terms.items()})

    def __add__(self, other):
        other = self._coerce_other(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return PolyDiffElem(self.parent, out)

    __radd__ = __add__

    def __neg__(self):
        return PolyDiffElem(self.parent, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, PolyDiffElem):
            try:
                other = self._coerce_other(other)
            except TypeError:
                return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return PolyDiffElem(self.parent, out)

    __rmul__ = __mul__

    def inv(self) -> "PolyDiffElem":
        # Laurent monomials only: a single term can be inverted exactly
        if len(self.terms) != 1:
            raise ValueError("negative powers are only available for single monomials")
        ((exps, c),) = self.terms.items()
        return PolyDiffElem(self.parent, {tuple(-e for e in exps): self.parent.base.one() / c})

    def derive(self) -> "PolyDiffElem":
        """Leibniz extension of the base derivation and the generator images."""
        parent = self.parent
        total = parent.zero()
        for exps, c in self.terms.items():
            mono = PolyDiffElem(parent, {exps: parent.base.one()})
            total = total + mono.scale(c.derive())
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                lowered = list(exps)
                lowered[i] -= 1
                partial = PolyDiffElem(parent, {tuple(lowered): c * e})
                total = total + partial * parent.gen_derivative(i)
        return total

    def _key(self):
        return self.terms
