"""The operators shared by every element type (powers, subtraction, division) and the protocol of every field."""

from fractions import Fraction

import pytest

from diffsym import SymbolAlgebra
from diffsym.matdiff import DiffMatrix
from diffsym.scalars import CycloField, KummerField, MonomialDiffField, Poly, RatFuncField
from diffsym.scalars.kummer import KummerElem
from diffsym.scalars.monomial import PolyDiffElem
from diffsym.scalars.elem import FieldElem
from diffsym.symalg import SymbolElem


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



# -- the canonical form of the sparse element types ----------------------------
#
# Each case gives the parent, the public constructor of the element
# c + x0 * g + x1 * g' (g the first generator, g' a second monomial) and the
# first generator of an equal but distinct parent, None where parents compare
# by identity.


def _kummer_case(k):
    e = KummerField(k, k.gen(), 3, "xi")
    return e, lambda c, x0, x1: KummerElem(e, [c, x0, x1]), KummerField(k, k.gen(), 3, "xi").gen()


def _polydiff_case(k):
    f = MonomialDiffField(k, ["x0", "x1"], [k.one(), k.gen()])
    return f, lambda c, x0, x1: PolyDiffElem(f, {(0, 0): c, (1, 0): x0, (-1, 2): x1}), None


def _symbol_case(k):
    t = k.gen()
    alg = SymbolAlgebra(k, t, t + k.one(), 3)
    twin = SymbolAlgebra(k, t, t + k.one(), 3)
    zero = k.zero()
    return alg, lambda c, x0, x1: SymbolElem(alg, [[c, zero, x1], [x0, zero, zero], [zero] * 3]), twin.u()


def _parent(x):
    return x.algebra if isinstance(x, SymbolElem) else x.parent


@pytest.mark.parametrize("case, text", [
    (_kummer_case, "(-3) + xi + (t/(t + 1))*xi^2"),
    (_polydiff_case, "(t/(t + 1))*x0^-1*x1^2 + (-3) + x0"),
    (_symbol_case, "(-3) + (t/(t + 1))*v^2 + u"),
], ids=["KummerElem", "PolyDiffElem", "SymbolElem"])
def test_sparse_elements_keep_the_canonical_form(case, text):
    """No zero is stored: not by a sum that cancels, a zero operand or the public constructor."""
    k = RatFuncField(CycloField(3), "t")
    t, w, zero = k.gen(), k.omega(), k.zero()
    parent, build, twin_gen = case(k)
    x = build(w + 2, t, zero)
    assert len(x.terms) == 2 and build(zero, zero, zero).terms == {}
    assert repr(build(k.coerce(-3), k.one(), t / (t + 1))) == text
    assert (x + (-x)).terms == {} and (x - x).terms == {}
    empty = x - x
    for got in (x + empty, empty + x):
        assert got == x and got.terms == x.terms and _parent(got) is parent
    if twin_gen is None:
        return
    assert _parent(twin_gen) == parent and _parent(twin_gen) is not parent
    for got in (x + twin_gen, empty + twin_gen):
        assert _parent(got) is parent


# -- the protocol shared by every field descriptor ------------------------------


def test_a_field_names_its_own_generators_before_those_below():
    """generators() lists a field's own names first, then coerces in those below; an own name shadows one below."""
    cyclo = CycloField(3)
    k = RatFuncField(cyclo, "w")
    assert k.generators() == {"w": k.gen()}
    k = RatFuncField(cyclo, "t")
    e = KummerField(k, k.gen(), 3, "t")
    f = MonomialDiffField(e, ["w"], [e.one()])
    assert e.generators() == {"t": e.gen(), "w": e.coerce(k.omega())}
    assert f.generators() == {"w": f.gen(0), "t": f.coerce(e.gen())}
    for field in (cyclo, k, e, f):
        assert field.zero() is field.coerce(0) and field.one() is field.coerce(1)
