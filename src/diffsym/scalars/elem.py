"""The protocol that every field of the tower and every element type share.

``Field`` is the base of the field descriptors: it returns the interned
``zero()`` and ``one()`` and the parser's ``generators()``, and folds the
``sum_of_products`` that an entry of a matrix product is.  ``Extension`` is
its form for a field over ``base`` whose elements are ``SparseElem`` sums; it
adds ``cyclo``, the interned units over the base, one ``coerce`` and the
elements' trusted constructor ``_make``, and gathers a sum of products in
one dict.

Ownership: an element holds its container (``parent``, or ``algebra``) by a
strong reference, so a field lives as long as any of its elements does.  A
container built per case (an ``Extension``, a ``SymbolAlgebra``) holds no
strong reference to an element of itself: it keeps its interned elements
through weak references and rebuilds one only after every reference to it
has gone.  "Interned" therefore means one live object: ``zero() is zero()``
whenever anyone can compare the two, and such a container is freed by
reference counting, with no reference cycle for the cyclic collector.
``CycloField`` and ``RatFuncField``, shared per m, hold theirs strongly.

``FieldElem`` is the base of the element types.  Each subclass defines
``__add__``, ``__mul__``, ``__neg__`` and ``inv`` in its own body;
subtraction, division, integer powers, equality and printing are derived here
from those.  The hot operations stay in the subclass bodies so that
``perfbench/tracing.py`` can wrap them per class through ``Class.__dict__``.
``SparseElem`` holds the canonical form shared by the element types stored as
sparse sums of monomials: the zero test, the equality key, negation, the
merging sum that their ``__add__`` calls and the product by an ``int`` or a
``Fraction``, which scales each coefficient and coerces nothing.  Such an
element has no public constructor: its container's ``_make``
(``Extension._make`` here, ``SymbolAlgebra._make`` for the symbol algebra)
is the only way one is made.
"""

from __future__ import annotations

from fractions import Fraction
from weakref import ref

_new = object.__new__


def unset_ref():
    """A stand-in for a weak reference not yet taken: it returns None, as a reference to an object that has gone does."""
    return None


class Field:
    """Base of the field descriptors.

    A subclass sets the interned ``_zero`` and ``_one`` (``Extension``
    builds them on demand instead), names its own generators in
    ``_own_generators()`` and sets ``_below``, the field whose generators
    follow them, when there is one.
    """

    _below = None

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def generators(self) -> dict:
        """Name to element for the parser: this field's own generators, then those of the field below.

        Built on each call, so that the field holds none of its elements.
        """
        own = self._own_generators()
        if self._below is not None:
            for name, g in self._below.generators().items():
                own.setdefault(name, self.coerce(g))
        return own

    def sum_of_products(self, pairs):
        """The sum of a * b over the (a, b) in pairs, one product and one sum at a time; zero for no pair.

        TypeError when the sum leaves this field, as a product with a factor
        from an extension of it does.
        """
        acc = None
        for a, b in pairs:
            ab = a * b
            acc = ab if acc is None else acc + ab
        if acc is None:
            return self.zero()
        return acc if acc.parent is self else self.coerce(acc)


class Extension(Field):
    """A field over ``base`` whose elements, of type ``elem_type``, are ``SparseElem`` sums over it.

    ``_make(terms)`` is their trusted constructor; a subclass sets
    ``_constant_key``, the key of the constant monomial.  The field holds
    its interned ``zero()`` and ``one()`` weakly (see the module docstring):
    each is built on first use and again only after every reference to it
    has gone, so an extension built per case is not part of a reference cycle.
    """

    def __init__(self, base, elem_type):
        self.base = self._below = base
        self.cyclo = base.cyclo
        self._elem_type = elem_type
        self._base_one = base.one()
        self._zero_ref = self._one_ref = unset_ref

    def zero(self):
        zero = self._zero_ref()
        if zero is None:
            # built directly: _make returns this zero for empty terms
            zero = _new(self._elem_type)
            zero.parent, zero.terms = self, {}
            self._zero_ref = ref(zero)
        return zero

    def one(self):
        one = self._one_ref()
        if one is None:
            one = self._make({self._constant_key: self._base_one})
            self._one_ref = ref(one)
        return one

    def _make(self, terms: dict):
        """The trusted constructor: terms maps keys to nonzero elements of the base; {} gives the interned zero."""
        if not terms:
            return self.zero()
        x = _new(self._elem_type)
        x.parent = self
        x.terms = terms
        return x

    def sum_of_products(self, pairs):
        """The sum of a * b over the (a, b) in pairs, its terms gathered in one dict and built once.

        The constant key is the identity of the monomials' product, so a
        factor of this field that is a constant, {_constant_key: c}, scales
        the other factor's terms by c: no product element is built, and no
        coefficient product at all when c is the base's one.  Any other pair,
        and a pair with a factor from another field, takes a * b in this
        field and merges its terms.  A term whose sum is zero is dropped, so
        a sum that cancels, or one of no pair, is the interned zero.
        """
        elem_type, key0, one = self._elem_type, self._constant_key, self._base_one
        out = {}
        for a, b in pairs:
            c = one
            if type(a) is elem_type and a.parent is self and type(b) is elem_type and b.parent is self:
                x, terms = a.terms, b.terms
                if len(x) == 1 and key0 in x:
                    c = x[key0]
                elif len(terms) == 1 and key0 in terms:
                    c, terms = terms[key0], x
                else:
                    terms = (a * b).terms
            else:
                terms = self.coerce(a * b).terms
            for key, v in terms.items():
                if c is not one:
                    v = c if v is one else v * c
                s = out.get(key)
                if s is None:
                    out[key] = v
                else:
                    s = s + v
                    if s.is_zero():
                        del out[key]
                    else:
                        out[key] = s
        return self._make(out)

    def coerce(self, x):
        """x in this field: an element of it (or of an equal field) as it is, an
        element of ``base`` with no second coerce, anything else through ``base.coerce``."""
        if isinstance(x, self._elem_type) and (x.parent is self or x.parent == self):
            return x
        c = x if getattr(x, "parent", None) is self.base else self.base.coerce(x)
        if c is self._base_one:
            return self.one()
        if c.is_zero():
            return self.zero()
        return self._make({self._constant_key: c})


class FieldElem:
    """Base of the exact element types.

    Hooks a subclass overrides where the default does not fit:

    * ``_coerce_other(other)``: ``other`` as an element of this one's parent
      (default ``self.parent.coerce``); raises TypeError when it is not one;
    * ``_one()``: the value of ``x**0`` (default ``self.parent.one()``);
    * ``_key()``: the canonical data that ``==`` compares.

    ``==`` coerces the other operand, then compares keys.  A type whose
    elements hold ``parent`` sets ``__eq__ = FieldElem._parent_eq``, which
    compares the keys of two elements of that type and one parent at once.
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
        """self / other; an ``int`` or ``Fraction`` q divides as the product by 1/q, with no element made for q."""
        if type(other) is int or type(other) is Fraction:
            if not other:
                raise ZeroDivisionError("inverse of zero")
            return self * Fraction(1, other)
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

    def _parent_eq(self, other):
        """``__eq__`` of a type whose elements hold ``parent``: keys are canonical, so an element
        of the same type and parent is compared with no coercion."""
        if type(other) is type(self) and other.parent is self.parent:
            return self._key() == other._key()
        return FieldElem.__eq__(self, other)

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
    its container (``parent``, or ``algebra`` for ``SymbolElem``) and
    ``terms`` in slots and defines no ``__init__``: every element is made by
    the container's trusted ``_make``, so one with no term is the container's
    interned zero.  ``_with(terms)`` builds in the same container;
    ``__add__`` stays in the subclass body, its coercion followed by
    ``self._plus(other)``.
    """

    __slots__ = ()

    def _with(self, terms: dict):
        return self.parent._make(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def _key(self):
        return self.terms

    def __neg__(self):
        return self._with({key: -c for key, c in self.terms.items()})

    def _times_rational(self, q):
        """self * q for an int or Fraction q, coefficient by coefficient: 0 gives the interned zero, 1 self."""
        if not q:
            return self._with({})
        if q == 1:
            return self
        return self._with({key: c * q for key, c in self.terms.items()})

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
