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
from weakref import ref

from .elem import Extension, SparseElem, unset_ref


class PolyDiffField(Extension):
    """F[x_0..x_{n-1}] with a derivation given on each generator.

    The ring holds no strong reference to an element of itself (the
    ownership rule of ``scalars/elem.py``).  It keeps each generator x_i
    through a weak reference, and each image d(x_i) as its term dict, which
    holds only coefficients in the base, with a weak reference to the element
    built from it.  An element is rebuilt only after every reference to it
    has gone, so ``gen(i) is gen(i)`` and ``gen(i).derive() is
    gen_derivative(i)`` hold whenever the two can be compared.
    """

    _constant_key = ()

    def __init__(self, base, names):
        super().__init__(base, PolyDiffElem)
        self.names = tuple(names)
        self.n = len(self.names)
        self._gen_refs = [unset_ref] * self.n
        # d(x_i): its terms (None until set) and a weak reference to its element
        self._image_terms = [None] * self.n
        self._image_refs = [unset_ref] * self.n

    def _check_index(self, i: int):
        if not 0 <= i < self.n:
            raise ValueError(f"generator index {i} is out of range for n = {self.n} variables")

    def set_gen_derivative(self, i: int, value: "PolyDiffElem"):
        """Store d(x_i): an element of this field as it is, anything else coerced into it."""
        self._check_index(i)
        value = value if getattr(value, "parent", None) is self else self.coerce(value)
        self._image_terms[i] = value.terms
        self._image_refs[i] = ref(value)

    def gen_derivative(self, i: int) -> "PolyDiffElem":
        self._check_index(i)
        v = self._image_refs[i]()
        if v is None:
            terms = self._image_terms[i]
            if terms is None:
                raise ValueError(f"derivation of {self.names[i]} was never set")
            v = self._make(terms)
            self._image_refs[i] = ref(v)
        return v

    @property
    def is_zero_derivation(self) -> bool:
        return False

    def gen(self, i: int) -> "PolyDiffElem":
        self._check_index(i)
        x = self._gen_refs[i]()
        if x is None:
            x = self._make({((i, 1),): self._base_one})
            self._gen_refs[i] = ref(x)
        return x

    def _own_generators(self) -> dict:
        return {name: self.gen(i) for i, name in enumerate(self.names)}

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

    Every element is made by the field's trusted ``_make`` (see
    ``SparseElem``): from its generators, ``coerce`` and arithmetic.  A
    coefficient product with the base's one is skipped, and a product with a
    constant, the single term ``{(): c}``, scales the other factor's
    coefficients by c and merges no keys, and so does an ``int`` or
    ``Fraction``, which is not coerced.
    """

    __slots__ = ("parent", "terms", "__weakref__")

    __eq__ = SparseElem._parent_eq

    def scale(self, c) -> "PolyDiffElem":
        c = self.parent.base.coerce(c)
        if c.is_zero():
            return self.parent.zero()
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
            if type(other) is int or type(other) is Fraction:
                return self._times_rational(other)
            try:
                other = parent.coerce(other)
            except TypeError:
                return NotImplemented
        x, y = self.terms, other.terms
        if len(y) == 1 and () in y:
            return _scaled(self, y[()])
        if len(x) == 1 and () in x:
            return _scaled(other, x[()])
        one = parent._base_one
        out = {}
        for k1, c1 in x.items():
            for k2, c2 in y.items():
                key = _mul_keys(k1, k2)
                c = c2 if c1 is one else c1 if c2 is one else c1 * c2
                out[key] = out[key] + c if key in out else c
        return parent._make({e: c for e, c in out.items() if not c.is_zero()})

    __rmul__ = __mul__

    def inv(self) -> "PolyDiffElem":
        # Laurent monomials only: a single term can be inverted exactly
        if not self.terms:
            raise ZeroDivisionError("inverse of zero")
        if len(self.terms) != 1:
            raise ValueError("negative powers are only available for single monomials")
        ((key, c),) = self.terms.items()
        return self.parent._make({tuple((i, -e) for i, e in key): c.inv()})

    def derive(self) -> "PolyDiffElem":
        """Leibniz extension of the base derivation and the generator images.

        A bare generator x_i (one term, the base's interned one, exponent 1)
        returns its stored image ``gen_derivative(i)`` itself.  Any other
        element is derived by d(c x^e) = d(c) x^e + sum_i e_i c x^(e - 1_i) d(x_i),
        collected term by term; a coefficient with d(c) = 0 contributes no
        first term, and the base's one is not derived at all.
        """
        parent = self.parent
        one = parent._base_one
        if len(self.terms) == 1:
            ((key, c),) = self.terms.items()
            if c is one and len(key) == 1 and key[0][1] == 1:
                return parent.gen_derivative(key[0][0])
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
        return parent._make({e: c for e, c in out.items() if not c.is_zero()})


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
    one = x.parent._base_one
    if c is one:
        return x
    return x.parent._make({e: c if v is one else v * c for e, v in x.terms.items()})
