"""The operators that every element type of the tower derives the same way.

Each subclass defines ``__add__``, ``__mul__``, ``__neg__`` and ``inv`` in
its own body; subtraction, division, integer powers, equality and printing are
derived here from those.  The hot operations stay in the subclass bodies so
that ``perfbench/tracing.py`` can wrap them per class through
``Class.__dict__``.
"""

from __future__ import annotations


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
        from ..parser import scalar_to_str

        try:
            return scalar_to_str(self)
        except Exception:
            return f"{type(self).__name__}({self._key()!r})"
