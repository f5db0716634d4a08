"""Grammar round-trip: printing then parsing is the identity."""

from fractions import Fraction

import pytest

from diffsym import ParseError, parse_scalar, parse_symbol, scalar_to_str
from diffsym.scalars import (
    CycloField,
    KummerField,
    MonomialDiffField,
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


def test_roundtrip_kummer(rng):
    k = RatFuncField(CycloField(3), "t")
    e = KummerField(k, k.gen(), 3, "xi")
    xi = e.gen()
    for _ in range(30):
        x = e.coerce(random_ratfunc(k, rng)) + xi * random_ratfunc(k, rng) + xi**2 * rng.randint(-3, 3)
        assert parse_scalar(scalar_to_str(x), e) == x


def test_roundtrip_monomial(rng):
    k = RatFuncField(CycloField(2), "t")
    e = MonomialDiffField(k, ["x0", "x1"], [k.one(), k.gen()])
    for _ in range(30):
        x = (
            e.gen(0) ** rng.randint(-2, 2) * e.gen(1) ** rng.randint(0, 2)
        ).scale(random_ratfunc(k, rng)) + e.coerce(rng.randint(-3, 3))
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


def test_parse_errors_carry_position():
    k = RatFuncField(CycloField(3), "t")
    with pytest.raises(ParseError) as info:
        parse_scalar("t + + 1", k)
    assert info.value.position >= 0
    with pytest.raises(ParseError):
        parse_scalar("xi", k)  # undefined symbol in this context
    with pytest.raises(ParseError):
        parse_scalar("t (", k)  # trailing input
