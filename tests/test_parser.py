"""Grammar round-trip: printing then parsing is the identity."""

from fractions import Fraction

import pytest

from diffsym.parser import ParseError, parse_scalar, parse_symbol, scalar_to_str
from diffsym.scalars import (
    CycloField,
    KummerField,
    MonomialDiffField,
    PolyDiffField,
    RatFuncField,
)
from diffsym.symalg import SymbolAlgebra


def random_cyclo(f, rng):
    return type(f.zero())(f, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(f.degree)])


def random_ratfunc(k, rng):
    t = k.gen()
    num = sum((t**i * k.coerce(random_cyclo(k.cyclo, rng)) for i in range(3)), k.zero())
    den = k.zero()
    while den.is_zero():
        den = sum((t**i * rng.randint(-3, 3) for i in range(3)), k.zero())
    return num / den


def test_roundtrip_cyclo(rng):
    for m in (2, 3, 4, 5):
        f = CycloField(m)
        for _ in range(30):
            x = random_cyclo(f, rng)
            assert parse_scalar(scalar_to_str(x), f) == x


def test_roundtrip_ratfunc(rng):
    k = RatFuncField(CycloField(3), "t")
    for _ in range(100):
        x = random_ratfunc(k, rng)
        assert parse_scalar(scalar_to_str(x), k) == x
    # a field names its own variable, and only that one
    k = RatFuncField(CycloField(3), "s")
    assert scalar_to_str(k.gen() + k.one()) == "s + 1"
    for _ in range(30):
        x = random_ratfunc(k, rng)
        assert parse_scalar(scalar_to_str(x), k) == x
    with pytest.raises(ParseError, match="undefined symbol 't'"):
        parse_scalar("t + 1", k)


def test_roundtrip_kummer(rng):
    k = RatFuncField(CycloField(3), "t")
    e = KummerField(k, k.gen(), 3, "xi")
    xi = e.gen()
    for _ in range(30):
        x = e.coerce(random_ratfunc(k, rng)) + xi * random_ratfunc(k, rng) + xi**2 * rng.randint(-3, 3)
        assert parse_scalar(scalar_to_str(x), e) == x
    # two levels: eta^3 = t + 1 over k(xi)
    top = KummerField(e, k.gen() + k.one(), 3, "eta")
    gens = top.generators()
    assert list(gens) == ["eta", "xi", "t", "w"]
    for name, value in (("eta", top.gen()), ("xi", xi), ("t", k.gen()), ("w", k.cyclo.omega())):
        assert parse_scalar(name, top) == top.coerce(value) == gens[name]
    eta = top.gen()
    for _ in range(10):
        x = top.coerce(random_ratfunc(k, rng)) + eta * xi * random_ratfunc(k, rng) + eta**2 * (xi + rng.randint(-3, 3))
        assert parse_scalar(scalar_to_str(x), top) == x


def test_roundtrip_monomial(rng):
    k = RatFuncField(CycloField(2), "t")
    e = MonomialDiffField(k, ["x0", "x1"], [k.one(), k.gen()])
    for _ in range(30):
        x = (
            e.gen(0) ** rng.randint(-2, 2) * e.gen(1) ** rng.randint(0, 2)
        ).scale(random_ratfunc(k, rng)) + e.coerce(rng.randint(-3, 3))
        assert parse_scalar(scalar_to_str(x), e) == x
    # generic-splitting variables over k(xi)
    xi_field = KummerField(k, k.gen(), 2, "xi")
    e = PolyDiffField(xi_field, ["x00", "x01"])
    assert list(e.generators()) == ["x00", "x01", "xi", "t", "w"]
    xi = xi_field.gen()
    for _ in range(20):
        c = xi_field.coerce(random_ratfunc(k, rng)) + xi * rng.randint(-3, 3)
        x = (e.gen(0) ** rng.randint(0, 2) * e.gen(1) ** rng.randint(0, 2)).scale(c) + e.coerce(xi * k.gen())
        assert parse_scalar(scalar_to_str(x), e) == x


def test_roundtrip_symbol(rng):
    k = RatFuncField(CycloField(3), "t")
    alg = SymbolAlgebra(k, k.gen(), k.gen() + k.one(), 3)
    u, v = alg.u(), alg.v()
    assert repr(v + u * v * 2) == "v + 2*u*v"
    for _ in range(20):
        x = alg.zero_elem()
        for _ in range(3):
            x = x + alg.monomial(rng.randrange(3), rng.randrange(3), random_ratfunc(k, rng))
        assert parse_symbol(repr(x), alg) == x


def test_parse_symbol_elements():
    k = RatFuncField(CycloField(3), "t")
    alg = SymbolAlgebra(k, k.gen(), k.gen() + k.one(), 3)
    x = parse_symbol("u*v^2 + (1/t)*u - 3", alg)
    assert x.grid[1][2] == k.one()
    assert x.grid[1][0] == k.one() / k.gen()
    assert x.grid[0][0] == k.coerce(-3)
    # u^m wraps into alpha
    assert parse_symbol("u^3", alg) == alg.scalar(alg.alpha)


def test_generator_powers_are_bounded_by_the_radicand_degree():
    k = RatFuncField(CycloField(2), "t")
    t = k.gen()
    for name, alpha, beta in (("u", t**20, t + k.one()), ("v", t + k.one(), t**20)):
        alg = SymbolAlgebra(k, alpha, beta, 2)
        radicand = alpha if name == "u" else beta
        # name^400 is radicand^200, of t-degree 4000, as (t^20)^200 is
        for src in (f"{name}^400", f"{name}^-101", "(t^20)^200"):
            with pytest.raises(ParseError, match="too large"):
                parse_symbol(src, alg)
        assert parse_symbol(f"{name}^100", alg) == alg.scalar(radicand**50)
        assert parse_symbol(f"{name}^-99", alg) == parse_symbol(name, alg) * alg.scalar(radicand**-50)


def test_parse_errors_carry_position():
    k = RatFuncField(CycloField(3), "t")
    with pytest.raises(ParseError) as info:
        parse_scalar("t + + 1", k)
    assert info.value.position >= 0
    with pytest.raises(ParseError):
        parse_scalar("xi", k)  # undefined symbol in this context
    with pytest.raises(ParseError):
        parse_scalar("t (", k)  # trailing input


def test_tokenizer_errors_name_the_offending_character():
    k = RatFuncField(CycloField(3), "t")
    for src, char, position in (("1 $", "$", 2), ("  $t", "$", 2), ("t +\t#", "#", 4), ("$", "$", 0)):
        with pytest.raises(ParseError) as info:
            parse_scalar(src, k)
        assert info.value.position == position
        assert str(info.value) == f"unexpected character {char!r} at position {position}"
    with pytest.raises(ParseError) as info:
        parse_scalar("t  (", k)
    assert info.value.position == 3
    assert parse_scalar("  ( t + 1 ) ^ 2  ", k) == (k.gen() + k.one()) ** 2


def test_negative_powers_in_symbol_expressions():
    k = RatFuncField(CycloField(2), "t")
    t = k.gen()
    alg = SymbolAlgebra(k, t, t + k.one(), 2)
    assert parse_symbol("(t^-1/2)*u", alg) == parse_symbol("(1/(2*t))*u", alg)
    assert parse_symbol("((t+1)^-1/2)*v", alg) == parse_symbol("(1/(2*(t+1)))*v", alg)
    assert parse_symbol("t^-2", alg) == alg.scalar(t**-2)
    for m in (2, 3):
        k = RatFuncField(CycloField(m), "t")
        alg = SymbolAlgebra(k, k.gen(), k.gen() + k.one(), m)
        assert parse_symbol("u^-1", alg) == parse_symbol("1/u", alg)
        assert parse_symbol("v^-2", alg) == parse_symbol("1/v^2", alg)
        assert parse_symbol("(u + v)^-2 * (u + v)^2", alg) == alg.one()


def test_symbol_products_while_parsing(monkeypatch):
    from diffsym.symalg import SymbolElem

    calls = []
    mul = SymbolElem.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(SymbolElem, "__mul__", counting)
    k = RatFuncField(CycloField(3), "t")
    t, w = k.gen(), k.coerce(k.cyclo.omega())
    alg = SymbolAlgebra(k, t, t + k.one(), 3)
    assert parse_symbol("(3*w + 2)*t^2/(t + 1)", alg) == alg.scalar((w * 3 + 2) * t**2 / (t + k.one()))
    assert parse_symbol("-t^-1 + 2*w", alg) == alg.scalar(-(t**-1) + w * 2)
    assert not calls
    k = RatFuncField(CycloField(5), "t")
    t = k.gen()
    alg = SymbolAlgebra(k, t, t + k.one(), 5)
    x = parse_symbol("(2*t + 1)*u^4*v^2", alg)
    assert len(calls) <= 1
    calls.clear()
    assert x == alg.monomial(4, 2, t * 2 + 1)
    assert parse_symbol("u*u*u*u*v*v*(2*t + 1)", alg) == x


def test_large_powers_are_rejected_before_any_arithmetic():
    k = RatFuncField(CycloField(3), "t")
    with pytest.raises(ParseError) as info:
        parse_scalar("t^1000000000000", k)
    assert info.value.position == 2
    with pytest.raises(ParseError) as info:
        parse_scalar("(t^40)^40", k)  # t-degree 40 times 40
    assert info.value.position == 7
    with pytest.raises(ParseError):
        parse_scalar("2^-1001", k)
    assert parse_scalar("t^1000", k) == k.gen() ** 1000
    alg = SymbolAlgebra(k, k.gen(), k.gen() + k.one(), 3)
    with pytest.raises(ParseError):
        parse_symbol("(u^999)^999", alg)  # u^999 = t^333 u^0


def test_constant_coefficients_print_without_doubled_parentheses(rng):
    from diffsym.parser import _wrap, symbol_to_str

    assert _wrap("(w + 1)") == "(w + 1)"
    assert _wrap("(t)/(t + 1)") == "((t)/(t + 1))"
    assert _wrap("(w + 1)*t + 2") == "((w + 1)*t + 2)"
    assert _wrap("((w + 1))") == "((w + 1))"
    for m in (3, 4, 5):
        k = RatFuncField(CycloField(m), "t")
        alg = SymbolAlgebra(k, k.gen(), k.gen() + k.one(), m)
        for _ in range(10):
            x = alg.zero_elem()
            for _ in range(3):
                x = x + alg.monomial(rng.randrange(m), rng.randrange(m), k.coerce(random_cyclo(k.cyclo, rng)))
            text = symbol_to_str(x)
            assert "((" not in text, text
            y = parse_symbol(text, alg)
            assert y == x and symbol_to_str(y) == text
    k3 = RatFuncField(CycloField(3), "t")
    alg = SymbolAlgebra(k3, k3.gen(), k3.gen() + k3.one(), 3)
    assert symbol_to_str(parse_symbol("v^2 + (w + 1)*u*v + u^2", alg)) == "v^2 + (w + 1)*u*v + u^2"


def test_constant_numerators_print_without_doubled_parentheses(rng):
    from diffsym.parser import symbol_to_str

    for m in (3, 4, 5):
        k = RatFuncField(CycloField(m), "t")
        t = k.gen()
        alg = SymbolAlgebra(k, t, t + k.one(), m)
        for _ in range(10):
            c = k.coerce(random_cyclo(k.cyclo, rng))
            if c.is_zero():
                continue
            f = c / (t + k.coerce(random_cyclo(k.cyclo, rng)))
            text = scalar_to_str(f)
            assert "((" not in text, text
            g = parse_scalar(text, k)
            assert g == f and scalar_to_str(g) == text
            x = alg.monomial(rng.randrange(m), rng.randrange(m), f)
            text = symbol_to_str(x)
            assert "(((" not in text, text
            assert parse_symbol(text, alg) == x
    k3 = RatFuncField(CycloField(3), "t")
    assert scalar_to_str(parse_scalar("((-w - 1))/(t + (-w - 1))", k3)) == "(-w - 1)/(t + (-w - 1))"


@pytest.mark.parametrize(
    "text",
    [
        "1/t",
        "w/t",
        "2/t^2",
        "t^3/(t + 1)",
        "(t + 1)/t",
        "(-t)/(t + 1)",
        "(-1)/t",
        "(1/2)/t",
        "(2*t)/(t + 1)",
        "1/(t^2 + 1)",
        "(-w - 1)/(t + (-w - 1))",
    ],
)
def test_quotients_parenthesise_only_compound_parts(text):
    # a numerator or denominator goes bare when it is one unsigned atom:
    # a non-negative integer, a generator name, or a name with ^n
    k3 = RatFuncField(CycloField(3), "t")
    x = parse_scalar(text, k3)
    assert scalar_to_str(x) == text
    assert parse_scalar(scalar_to_str(x), k3) == x


def test_quotient_atoms_inside_products_round_trip():
    from diffsym.parser import symbol_to_str

    k = RatFuncField(CycloField(3), "t")
    t = k.gen()
    alg = SymbolAlgebra(k, t, t + k.one(), 3)
    x = alg.monomial(1, 2, k.one() / t) + alg.monomial(0, 1, k.coerce(k.cyclo.omega()) / (t * t))
    text = symbol_to_str(x)
    assert text == "(w/t^2)*v + (1/t)*u*v^2"
    assert parse_symbol(text, alg) == x
