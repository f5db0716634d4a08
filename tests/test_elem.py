"""The operators shared by every element type: powers, subtraction, division."""

from fractions import Fraction

import pytest

from diffsym import SymbolAlgebra
from diffsym.matdiff import DiffMatrix
from diffsym.scalars import CycloField, KummerField, MonomialDiffField, Poly, RatFuncField
from diffsym.scalars.elem import FieldElem


class Counted(FieldElem):
    """Rationals that count their multiplications."""

    __slots__ = ("value", "log")

    def __init__(self, value, log):
        self.value = Fraction(value)
        self.log = log

    def _coerce_other(self, other):
        return other if isinstance(other, Counted) else Counted(other, self.log)

    def _one(self):
        return Counted(1, self.log)

    def _key(self):
        return self.value

    def __add__(self, other):
        return Counted(self.value + self._coerce_other(other).value, self.log)

    def __neg__(self):
        return Counted(-self.value, self.log)

    def __mul__(self, other):
        self.log.append("mul")
        return Counted(self.value * self._coerce_other(other).value, self.log)

    def inv(self):
        return Counted(1 / self.value, self.log)


@pytest.mark.parametrize("n", list(range(0, 40)) + [255, 256, 1000])
def test_square_and_multiply_count(n):
    log = []
    x = Counted(Fraction(3, 2), log)
    assert (x**n).value == Fraction(3, 2) ** n
    # no product with one, no squaring after the top bit
    assert len(log) == (n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0)


def test_derived_operators():
    log = []
    x, y = Counted(5, log), Counted(2, log)
    assert (x - y).value == 3 and (7 - y).value == 5
    assert (x / y).value == Fraction(5, 2) and (1 / y).value == Fraction(1, 2)
    assert (x**-2).value == Fraction(1, 25)
    assert x == 5 and x != y


def _elements():
    k = RatFuncField(CycloField(3), "t")
    t = k.gen()
    e = KummerField(k, t, 3, "xi")
    mono = MonomialDiffField(k, ["x0"], [k.one()])
    alg = SymbolAlgebra(k, t, t + k.one(), 3)
    return [
        k.cyclo.omega() + 2,
        t + k.omega(),
        Poly(k.cyclo, [1, 2, 3]),
        e.gen() + t,
        mono.gen(0) + 1,
        alg.u() + alg.v(),
        DiffMatrix(k, [[t, k.one()], [k.zero(), t + 1]]),
    ]


@pytest.mark.parametrize("x", _elements(), ids=lambda x: type(x).__name__)
def test_power_matches_repeated_product(x):
    acc = x**0
    assert acc == x._one()
    for n in range(1, 6):
        acc = acc * x
        assert x**n == acc
