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

from .elem import SparseElem, nonzero_terms


class PolyDiffField:
    """F[x_0..x_{n-1}] with a derivation given on each generator."""

    def __init__(self, base, names):
        self.base = base
        self.names = tuple(names)
        self.n = len(self.names)
        self._gen_derivs = [None] * self.n
        self._generators = {name: self.gen(i) for i, name in enumerate(self.names)}
        for name, g in base.generators().items():
            self._generators.setdefault(name, self.coerce(g))

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
        return _polydiff(self, {})

    def one(self) -> "PolyDiffElem":
        return _polydiff(self, {(0,) * self.n: self.base.one()})

    def gen(self, i: int) -> "PolyDiffElem":
        exps = [0] * self.n
        exps[i] = 1
        return _polydiff(self, {tuple(exps): self.base.one()})

    def generators(self) -> dict:
        """Name to element for the parser: x0, x1, ..., then the base's generators."""
        return self._generators

    def coerce(self, x) -> "PolyDiffElem":
        if isinstance(x, PolyDiffElem) and x.parent is self:
            return x
        c = self.base.coerce(x)
        if c.is_zero():
            return self.zero()
        return _polydiff(self, {(0,) * self.n: c})

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


class PolyDiffElem(SparseElem):
    """Finite sum of monomials Prod x_i^{e_i} with base-field coefficients, ``terms``: {e: c}.

    ``PolyDiffElem(parent, terms)`` coerces each coefficient and drops the
    zeros (see ``SparseElem``); arithmetic builds through the trusted
    ``_polydiff``, and a coefficient product with the base's one is skipped.
    """

    __slots__ = ("parent", "terms")

    def __init__(self, parent: PolyDiffField, terms: dict):
        self.parent = parent
        self.terms = nonzero_terms(((tuple(exps), c) for exps, c in terms.items()), parent.base.coerce)

    def _with(self, terms: dict) -> "PolyDiffElem":
        return _polydiff(self.parent, terms)

    def scale(self, c) -> "PolyDiffElem":
        base = self.parent.base
        c = base.coerce(c)
        one = base.one()
        if c is one:
            return self
        if c.is_zero():
            return self._with({})
        # the base is a field, so a product of nonzero coefficients is nonzero
        return self._with({e: c if v is one else v * c for e, v in self.terms.items()})

    def __add__(self, other):
        parent = self.parent
        if type(other) is not PolyDiffElem or other.parent is not parent:
            other = parent.coerce(other)
        return self._plus(other)

    __radd__ = __add__

    def __mul__(self, other):
        parent = self.parent
        if type(other) is not PolyDiffElem or other.parent is not parent:
            try:
                other = parent.coerce(other)
            except TypeError:
                return NotImplemented
        one = parent.base.one()
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c2 if c1 is one else c1 if c2 is one else c1 * c2
                out[e] = out[e] + c if e in out else c
        return _polydiff(parent, {e: c for e, c in out.items() if not c.is_zero()})

    __rmul__ = __mul__

    def inv(self) -> "PolyDiffElem":
        # Laurent monomials only: a single term can be inverted exactly
        if len(self.terms) != 1:
            raise ValueError("negative powers are only available for single monomials")
        ((exps, c),) = self.terms.items()
        return _polydiff(self.parent, {tuple(-e for e in exps): c.inv()})

    def derive(self) -> "PolyDiffElem":
        """Leibniz extension of the base derivation and the generator images.

        d(c x^e) = d(c) x^e + sum_i e_i c x^(e - 1_i) d(x_i), collected term by
        term; a coefficient with d(c) = 0 contributes no first term.
        """
        parent = self.parent
        out = {}
        for exps, c in self.terms.items():
            dc = c.derive()
            if not dc.is_zero():
                out[exps] = out[exps] + dc if exps in out else dc
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                ce = c if e == 1 else c * e
                lowered = list(exps)
                lowered[i] -= 1
                for gexps, g in parent.gen_derivative(i).terms.items():
                    mono = tuple(a + b for a, b in zip(lowered, gexps))
                    v = ce * g
                    out[mono] = out[mono] + v if mono in out else v
        return _polydiff(parent, {e: c for e, c in out.items() if not c.is_zero()})


_new = object.__new__


def _polydiff(parent: PolyDiffField, terms: dict) -> PolyDiffElem:
    """The trusted constructor: terms maps exponent tuples to nonzero elements of the base."""
    x = _new(PolyDiffElem)
    x.parent = parent
    x.terms = terms
    return x
