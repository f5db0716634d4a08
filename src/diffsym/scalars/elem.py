"""The protocol that every field of the tower and every element type share.

``Field`` is the base of the field descriptors: it returns the interned
``zero()`` and ``one()`` and the parser's ``generators()``.  ``Extension`` is
its form for a field over ``base`` whose elements are ``SparseElem`` sums; it
adds ``cyclo``, the interned units over the base and one ``coerce``.

``FieldElem`` is the base of the element types.  Each subclass defines
``__add__``, ``__mul__``, ``__neg__`` and ``inv`` in its own body;
subtraction, division, integer powers, equality and printing are derived here
from those.  The hot operations stay in the subclass bodies so that
``perfbench/tracing.py`` can wrap them per class through ``Class.__dict__``.
``SparseElem`` holds the canonical form shared by the element types stored as
sparse sums of monomials: the zero test, the equality key, negation and the
merging sum that their ``__add__`` calls.
"""

from __future__ import annotations


class Field:
    """Base of the field descriptors.

    A subclass sets the interned ``_zero`` and ``_one`` and calls
    ``_name_generators`` once from its ``__init__``.
    """

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def generators(self) -> dict:
        """Name to element for the parser: this field's own generators, then those of the field below."""
        return self._generators

    def _name_generators(self, own: dict, below=None):
        if below is not None:
            for name, g in below.generators().items():
                own.setdefault(name, self.coerce(g))
        self._generators = own


class Extension(Field):
    """A field over ``base`` whose elements, of type ``elem_type``, are ``SparseElem`` sums over it.

    A subclass defines ``_constant(c)``: the element c, for a nonzero c in
    the base, built by its module's trusted constructor.
    """

    def __init__(self, base, elem_type):
        self.base = base
        self.cyclo = base.cyclo
        self._elem_type = elem_type
        self._base_one = base.one()
        # built directly: each trusted constructor returns this zero for empty terms
        self._zero = zero = object.__new__(elem_type)
        zero.parent, zero.terms = self, {}
        self._one = self._constant(self._base_one)

    def coerce(self, x):
        if isinstance(x, self._elem_type) and (x.parent is self or x.parent == self):
            return x
        c = self.base.coerce(x)
        if c is self._base_one:
            return self._one
        if c.is_zero():
            return self._zero
        return self._constant(c)


class FieldElem:
    """Base of the exact element types.

    Hooks a subclass overrides where the default does not fit:

    * ``_coerce_other(other)``: ``other`` as an element of this one's parent
      (default ``self.parent.coerce``); raises TypeError when it is not one;
    * ``_one()``: the value of ``x**0`` (default ``self.parent.one()``);
    * ``_key()``: the canonical data that ``==`` compares.

    A type without inverses defines ``inv`` to raise ValueError, which is then
    what a negative power raises.
    """

    __slots__ = ()

    def _coerce_other(self, other):
        return self.parent.coerce(other)

    def _one(self):
        return self.parent.one()

    def __sub__(self, other):
        return self + (-self._coerce_other(other))

    def __rsub__(self, other):
        return self._coerce_other(other) - self

    def __truediv__(self, other):
        return self * self._coerce_other(other).inv()

    def __rtruediv__(self, other):
        return self._coerce_other(other) * self.inv()

    def __pow__(self, n: int):
        """Square-and-multiply: bit_length(n) - 1 squarings, popcount(n) - 1 products."""
        if n < 0:
            return self.inv() ** -n
        if n == 0:
            return self._one()
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = result * base
            n >>= 1
        return result

    def __eq__(self, other):
        try:
            other = self._coerce_other(other)
        except TypeError:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        # parser imports this package at module level
        from ..parser import scalar_to_str

        try:
            return scalar_to_str(self)
        except Exception:
            return f"{type(self).__name__}({self._key()!r})"


class SparseElem(FieldElem):
    """Base of the element types stored as a finite sum of monomials, ``terms``: {key: c}.

    Invariant: no stored coefficient is zero.  The dict is therefore
    canonical: zero is {}, and ``==`` compares the dicts.  A subclass keeps
    its parent and ``terms`` in slots and defines ``_with(terms)``, its
    trusted constructor in the same parent; ``__add__`` stays in the subclass
    body, its coercion followed by ``self._plus(other)``.
    """

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.terms

    def _key(self):
        return self.terms

    def __neg__(self):
        return self._with({key: -c for key, c in self.terms.items()})

    def _plus(self, other):
        """self + other for an other in self's parent or an equal one; the sum lies in self's parent."""
        if not other.terms:
            return self
        if not self.terms:
            return self._with(other.terms)
        out = dict(self.terms)
        for key, b in other.terms.items():
            a = out.get(key)
            if a is None:
                out[key] = b
                continue
            s = a + b
            if s.is_zero():
                del out[key]
            else:
                out[key] = s
        return self._with(out)


def nonzero_terms(pairs, coerce) -> dict:
    """{key: coerce(c)} over the (key, c) pairs, without the zero coefficients."""
    out = {}
    for key, c in pairs:
        c = coerce(c)
        if not c.is_zero():
            out[key] = c
    return out
