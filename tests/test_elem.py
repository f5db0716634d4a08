"""The operators shared by every element type (powers, subtraction, division) and the protocol of every field."""

from fractions import Fraction

import pytest

from diffsym import SymbolAlgebra
from diffsym.matdiff import DiffMatrix
from diffsym.scalars import CycloField, KummerField, MonomialDiffField, Poly, PolyDiffField, RatFuncField
from diffsym.scalars.elem import FieldElem
from diffsym.symalg import SymbolElem
from oracles import kummer_from_coeffs, polydiff_from_dense


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
# Each case gives the parent, a dense builder of the element
# c + x0 * g + x1 * g' (g the first generator, g' a second monomial) and the
# first generator of an equal but distinct parent, None where parents compare
# by identity.


def _kummer_case(k):
    e = KummerField(k, k.gen(), 3, "xi")
    return e, lambda c, x0, x1: kummer_from_coeffs(e, [c, x0, x1]), KummerField(k, k.gen(), 3, "xi").gen()


def _polydiff_case(k):
    f = MonomialDiffField(k, ["x0", "x1"], [k.one(), k.gen()])
    return f, lambda c, x0, x1: polydiff_from_dense(f, {(0, 0): c, (1, 0): x0, (-1, 2): x1}), None


def _symbol_case(k):
    t = k.gen()
    alg = SymbolAlgebra(k, t, t + k.one(), 3)
    twin = SymbolAlgebra(k, t, t + k.one(), 3)
    zero = k.zero()
    return alg, lambda c, x0, x1: alg.from_grid([[c, zero, x1], [x0, zero, zero], [zero] * 3]), twin.u()


def _parent(x):
    return x.algebra if isinstance(x, SymbolElem) else x.parent


@pytest.mark.parametrize("case, text", [
    (_kummer_case, "(-3) + xi + (t/(t + 1))*xi^2"),
    (_polydiff_case, "(t/(t + 1))*x0^-1*x1^2 + (-3) + x0"),
    (_symbol_case, "(-3) + (t/(t + 1))*v^2 + u"),
], ids=["KummerElem", "PolyDiffElem", "SymbolElem"])
def test_sparse_elements_keep_the_canonical_form(case, text):
    """No zero is stored: not by a sum that cancels, a zero operand or a dense builder."""
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


def _zero_cases():
    """(container, its interned zero, a nonzero element with two terms) for each sparse container kind."""
    k = RatFuncField(CycloField(3), "t")
    t = k.gen()
    e = KummerField(k, t, 3, "xi")
    ring = PolyDiffField(k, ["x0", "x1"])
    ring.set_gen_derivative(0, ring.gen(1))
    ring.set_gen_derivative(1, ring.gen(0))
    mono = MonomialDiffField(k, ["x0"], [t])
    alg = SymbolAlgebra(k, t, t + k.one(), 3)
    return [
        (e, e.zero(), e.gen() + t),
        (ring, ring.zero(), ring.gen(0) * ring.gen(1) + t),
        (mono, mono.zero(), mono.gen(0) + 1),
        (alg, alg.zero_elem(), alg.u() + alg.v().scale(t)),
    ]


@pytest.mark.parametrize("container, zero, x", _zero_cases(),
                         ids=["KummerField", "PolyDiffField", "MonomialDiffField", "SymbolAlgebra"])
def test_a_result_with_no_term_is_the_containers_interned_zero(container, zero, x):
    assert zero.terms == {} and container._make({}) is zero
    assert x - x is zero and x + (-x) is zero and -zero is zero
    assert x * 0 is zero and 0 * x is zero and x * zero is zero and zero * x is zero
    if isinstance(container, SymbolAlgebra):
        assert container.zero_elem() is zero and x.scale(0) is zero and x.scale(container.field.zero()) is zero
    else:
        assert container.zero() is zero and container.coerce(0) is zero


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


# -- rational multiples and same-parent equality --------------------------------

_RATIONALS = (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3))


def _tower_samples(m, rng):
    """Seeded nonzero elements of Q(w), Q(w)(t), k(xi), k(xi)(eta) and a differential polynomial ring over k."""
    cyclo = CycloField(m)
    k = RatFuncField(cyclo, "t")
    t = k.gen()

    def constant():
        c = sum((w * Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for w in cyclo.omega_powers), cyclo.zero())
        return c if not c.is_zero() else cyclo.one()

    def ratfunc():
        return (t * constant() + constant()) / (t * t + rng.randint(1, 4))

    r1, r2 = rng.sample(range(-4, 5), 2)
    xi_field = KummerField(k, t - r1, m, "xi")
    eta_field = KummerField(xi_field, t - r2, m, "eta")
    xi, eta = xi_field.gen(), eta_field.gen()
    x = xi_field.coerce(ratfunc()) + xi * ratfunc() + xi ** (m - 1) * ratfunc()
    ring = PolyDiffField(k, ["x0", "x1"])
    x0, x1 = ring.gen(0), ring.gen(1)
    return [
        constant(),
        ratfunc(),
        x,
        eta_field.coerce(ratfunc()) + eta * x + eta ** (m - 1) * ratfunc(),
        x0 * ratfunc() + x0 * x1 * ratfunc() + ring.coerce(ratfunc()),
    ]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_a_rational_multiple_is_the_product_by_the_coerced_rational(m, rng):
    """x * q and q * x for an int or Fraction q equal x * parent.coerce(q), in x's parent; 0 gives the
    interned zero and 1 gives x itself."""
    for x in _tower_samples(m, rng):
        parent = x.parent
        for q in _RATIONALS:
            want = x * parent.coerce(q)
            for got in (x * q, q * x):
                assert type(got) is type(x) and got.parent is parent
                assert got._key() == want._key() and got == want, (x, q)
        assert x * 0 is parent.zero() and 0 * x is parent.zero()
        assert x * 1 is x and 1 * x is x


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_equality_in_one_parent_agrees_with_the_coerced_comparison(m, rng):
    """== of two elements of one type and parent compares keys with no coercion, and agrees with
    FieldElem.__eq__, which coerces first: on x itself, an equal element built apart, and others."""
    for x in _tower_samples(m, rng):
        twin = x * 2 * Fraction(1, 2)
        assert twin is not x
        for y in (x, twin, x * 2, -x, x + 1, x.parent.zero()):
            assert (x == y) is FieldElem.__eq__(x, y) is (x._key() == y._key())
        assert x == twin and x != x * 2 and x != x + 1


def test_kummer_elements_of_distinct_fields_compare_as_coerced():
    """An element of an equal Kummer field built apart is coerced as it is and compared; one of a field
    with another radicand cannot be coerced, so == falls back to identity, even on equal terms."""
    k = RatFuncField(CycloField(3), "t")
    t = k.gen()
    e, twin, other = (KummerField(k, a, 3, "xi") for a in (t, t, t + 1))
    x = e.gen() * t + 2
    for y, equal in ((twin.gen() * t + 2, True), (other.gen() * t + 2, False)):
        assert y.terms == x.terms and y.parent is not e
        assert (x == y) is (y == x) is equal
        assert (x != y) is not equal


def _division_samples():
    """One element of each type that divides: Q(w), Q[t], Q(w)(t), k(xi), k(xi)(eta), a differential
    polynomial ring over k, the symbol algebra (t, t+1) and a matrix over k, all at m = 3."""
    cyclo = CycloField(3)
    w = cyclo.omega()
    k = RatFuncField(cyclo, "t")
    t = k.gen()
    xi_field = KummerField(k, t, 3, "xi")
    eta_field = KummerField(xi_field, t + 1, 3, "eta")
    xi, eta = xi_field.gen(), eta_field.gen()
    ring = PolyDiffField(k, ["x0", "x1"])
    alg = SymbolAlgebra(k, t, t + k.one(), 3)
    return {
        "Q(w)": lambda: w + 2,
        "Q[t]": lambda: Poly(cyclo, [1, w, 3]),
        "Q(w)(t)": lambda: (t + w) / (t * t + 1),
        "k(xi)": lambda: xi * t + xi**2 * w + 1,
        "k(xi)(eta)": lambda: eta * xi + eta**2 * t + w,
        "PolyDiffField": lambda: ring.gen(0) * t + ring.gen(0) * ring.gen(1) * w + 1,
        "SymbolElem": lambda: alg.u().scale(t) + alg.v().scale(w) + alg.one(),
        "DiffMatrix": lambda: DiffMatrix(k, [[t, k.one()], [k.zero(), t + w]]),
    }


@pytest.mark.parametrize("kind", list(_division_samples()))
def test_dividing_by_a_rational_is_the_product_by_its_inverse_and_coerces_nothing(kind, monkeypatch):
    """x / q == x * Fraction(1, q) for an int or Fraction q, and x / 0 raises
    ZeroDivisionError("inverse of zero"). On a field element neither x / q nor x * q passes a
    rational to a field's coerce; a symbol element or a matrix scales through its field's coerce."""
    from diffsym.scalars.elem import Extension

    x = _division_samples()[kind]()
    rational = []

    def recording(coerce):
        def wrapper(field, y):
            if type(y) in (int, Fraction):
                rational.append(y)
            return coerce(field, y)
        return wrapper

    for cls in (CycloField, RatFuncField, Extension):
        monkeypatch.setattr(cls, "coerce", recording(cls.coerce))
    for q in (2, -3, Fraction(1, 2), Fraction(-5, 3)):
        got = x / q
        # a product by q scales too, from either side
        products = [x * q, q * x]
        assert kind in ("SymbolElem", "DiffMatrix") or rational == [], (kind, q)
        assert got == x * Fraction(1, q)
        assert all(y == got * (q * q) for y in products)
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        x / 0


def test_a_scalar_on_the_left_scales_a_symbol_element_or_a_matrix():
    """c * x is x * c for a scalar c of Q(w), Q(w)(t) or k(xi), and for an int or a Fraction: a field
    element returns NotImplemented for an operand its field cannot coerce, so the right operand's
    __rmul__ scales. An operand that neither side takes is still a TypeError."""
    k = RatFuncField(CycloField(3), "t")
    t, w = k.gen(), k.cyclo.omega()
    alg = SymbolAlgebra(k, t, t + k.one(), 3)
    u = alg.u()
    xi_field = KummerField(k, t, 3, "xi")
    xi = xi_field.gen()
    m = DiffMatrix(k, [[t, k.one()], [k.zero(), t + w]])
    m_xi = DiffMatrix(xi_field, [[xi, xi_field.one()], [xi_field.zero(), xi + t]])
    assert t * u == u * t == u.scale(t)
    assert w * u == u * w == u.scale(w) and repr(w * u) == "w*u"
    assert t * m == m * t == m.scale(t)
    assert 2 * m == m * 2 == m.scale(2)
    assert Fraction(1, 2) * m == m * Fraction(1, 2) == m / 2
    assert t * m_xi == m_xi * t and xi * m_xi == m_xi * xi == m_xi.scale(xi)
    # a scalar of the field below meets an element of the field above from either side
    assert t * xi == xi * t and w * t == t * w
    for c in (t, w, xi):
        with pytest.raises(TypeError):
            c * object()
