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

from .elem import Extension, SparseElem, nonzero_terms


class PolyDiffField(Extension):
    """F[x_0..x_{n-1}] with a derivation given on each generator."""

    def __init__(self, base, names):
        super().__init__(base, PolyDiffElem)
        self.names = tuple(names)
        self.n = len(self.names)
        self._gen_derivs = [None] * self.n
        one = self._base_one
        self._gens = tuple(_polydiff(self, {((i, 1),): one}) for i in range(self.n))
        self._name_generators(dict(zip(self.names, self._gens)), base)

    def _check_index(self, i: int):
        if not 0 <= i < self.n:
            raise ValueError(f"generator index {i} is out of range for n = {self.n} variables")

    def set_gen_derivative(self, i: int, value: "PolyDiffElem"):
        self._check_index(i)
        self._gen_derivs[i] = self.coerce(value)

    def gen_derivative(self, i: int) -> "PolyDiffElem":
        self._check_index(i)
        v = self._gen_derivs[i]
        if v is None:
            raise ValueError(f"derivation of {self.names[i]} was never set")
        return v

    @property
    def is_zero_derivation(self) -> bool:
        return False

    def gen(self, i: int) -> "PolyDiffElem":
        self._check_index(i)
        return self._gens[i]

    def _constant(self, c) -> "PolyDiffElem":
        return _polydiff(self, {(): c})

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
    """Finite sum of monomials Prod x_i^{e_i} with base-field coefficients, ``terms``: {key: c}.

    The key of a monomial is the tuple of its ``(i, e_i)`` pairs with
    e_i != 0, in ascending i: ``()`` is the constant monomial and x_i is
    ``((i, 1),)``.  The printer sorts terms by key in the order of the dense
    exponent tuples.

    ``PolyDiffElem(parent, terms)`` takes dense exponent tuples of length n as
    the keys of ``terms``, coerces each coefficient and drops the zeros (see
    ``SparseElem``); arithmetic builds through the trusted ``_polydiff``, and
    a coefficient product with the base's one is skipped.  A product with a
    constant, the single term ``{(): c}``, scales the other factor's
    coefficients by c and merges no keys.
    """

    __slots__ = ("parent", "terms")

    def __init__(self, parent: PolyDiffField, terms: dict):
        self.parent = parent
        n = parent.n
        self.terms = nonzero_terms(((_dense_to_key(exps, n), c) for exps, c in terms.items()), parent.base.coerce)

    def _with(self, terms: dict) -> "PolyDiffElem":
        return _polydiff(self.parent, terms)

    def scale(self, c) -> "PolyDiffElem":
        c = self.parent.base.coerce(c)
        if c.is_zero():
            return self.parent._zero
        return _scaled(self, c)

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
        x, y = self.terms, other.terms
        if len(y) == 1 and () in y:
            return _scaled(self, y[()])
        if len(x) == 1 and () in x:
            return _scaled(other, x[()])
        one = parent.base.one()
        out = {}
        for k1, c1 in x.items():
            for k2, c2 in y.items():
                key = _mul_keys(k1, k2)
                c = c2 if c1 is one else c1 if c2 is one else c1 * c2
                out[key] = out[key] + c if key in out else c
        return _polydiff(parent, {e: c for e, c in out.items() if not c.is_zero()})

    __rmul__ = __mul__

    def inv(self) -> "PolyDiffElem":
        # Laurent monomials only: a single term can be inverted exactly
        if not self.terms:
            raise ZeroDivisionError("inverse of zero")
        if len(self.terms) != 1:
            raise ValueError("negative powers are only available for single monomials")
        ((key, c),) = self.terms.items()
        return _polydiff(self.parent, {tuple((i, -e) for i, e in key): c.inv()})

    def derive(self) -> "PolyDiffElem":
        """Leibniz extension of the base derivation and the generator images.

        d(c x^e) = d(c) x^e + sum_i e_i c x^(e - 1_i) d(x_i), collected term by
        term; a coefficient with d(c) = 0 contributes no first term, and the
        base's one is not derived at all.
        """
        parent = self.parent
        one = parent.base.one()
        out = {}
        for key, c in self.terms.items():
            if c is not one:
                dc = c.derive()
                if not dc.is_zero():
                    out[key] = out[key] + dc if key in out else dc
            for i, e in key:
                ce = c if e == 1 else c * e
                lowered = _mul_keys(key, ((i, -1),))
                for gkey, g in parent.gen_derivative(i).terms.items():
                    mono = _mul_keys(lowered, gkey)
                    v = g if ce is one else ce * g
                    out[mono] = out[mono] + v if mono in out else v
        return _polydiff(parent, {e: c for e, c in out.items() if not c.is_zero()})


_new = object.__new__


def _dense_to_key(exps, n: int) -> tuple:
    """The key of the monomial with the dense exponent tuple exps, which must have length n."""
    exps = tuple(exps)
    if len(exps) != n:
        raise ValueError(f"exponent tuple of length {len(exps)} for n = {n} variables")
    return tuple((i, e) for i, e in enumerate(exps) if e)


def _mul_keys(a: tuple, b: tuple) -> tuple:
    """The key of the product of the monomials keyed a and b: a merge that drops each exponent summing to 0."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ia, ea = a[i]
        ib, eb = b[j]
        if ia < ib:
            out.append(a[i])
            i += 1
        elif ib < ia:
            out.append(b[j])
            j += 1
        else:
            s = ea + eb
            if s:
                out.append((ia, s))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _scaled(x: PolyDiffElem, c) -> PolyDiffElem:
    """x * c for a nonzero c in the base; the base is a field, so no coefficient product is zero."""
    one = x.parent.base.one()
    if c is one:
        return x
    return _polydiff(x.parent, {e: c if v is one else v * c for e, v in x.terms.items()})


def _polydiff(parent: PolyDiffField, terms: dict) -> PolyDiffElem:
    """The trusted constructor: terms maps monomial keys to nonzero elements of the base;
    empty terms give the parent's interned zero."""
    if not terms:
        return parent._zero
    x = _new(PolyDiffElem)
    x.parent = parent
    x.terms = terms
    return x
