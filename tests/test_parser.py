"""Grammar round-trip: printing then parsing is the identity."""

from fractions import Fraction

import pytest
from generators import cli_queries_argv
from oracles import field_parse_scalar, fraction_scalar_str, symbol_elem_parse_symbol

from diffsym.parser import MAX_DEPTH, MAX_EXPONENT, MAX_POWER_BITS, ParseError, _Parser, parse_scalar, parse_symbol, scalar_to_str
from diffsym.scalars import (
    CycloField,
    KummerField,
    MonomialDiffField,
    PolyDiffField,
    RatFunc,
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


def test_rationals_print_from_integer_numerators_as_from_fractions(rng, monkeypatch):
    """Elements of Q(w_m), m = 1..6, whose coefficients num[i]/den reduce differently, and elements of
    Q(w)(t) with rational coefficients, print as the Fraction printer prints them, building no Fraction."""
    samples = []
    for m in range(1, 7):
        f = CycloField(m)
        k = RatFuncField(f, "t")
        t = k.gen()
        for _ in range(20):
            samples.append(random_cyclo(f, rng))
            num = sum((t**i * Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for i in range(4)), k.zero())
            den = k.zero()
            # 1 + c_0 + c_1 t + c_2 t^2 is zero when c_0 = -1 and c_1 = c_2 = 0; such a den is drawn again
            while den.is_zero():
                den = sum((t**i * Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in range(3)), k.one())
            samples += [num, num / den]
        samples += [f.zero(), f.one(), -f.one(), f.omega() * Fraction(1, 2) + Fraction(1, 2)]
    want = [fraction_scalar_str(x) for x in samples]
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
    got = [scalar_to_str(x) for x in samples]
    monkeypatch.undo()
    assert got == want and built == []
    assert len({s for s in got if "/" in s}) > 50


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


def test_an_unprintable_element_is_refused_by_its_type_name_in_one_call(monkeypatch):
    """The refusal names the type: formatting repr(x) into it would re-enter scalar_to_str through
    FieldElem.__repr__, one level per call, down to the recursion limit."""
    import diffsym.parser as parser
    from diffsym.scalars.elem import FieldElem

    class Stub(FieldElem):
        def _key(self):
            return (1, 2)

    calls = []
    printer = parser.scalar_to_str
    monkeypatch.setattr(parser, "scalar_to_str", lambda x: calls.append(x) or printer(x))
    with pytest.raises(TypeError) as exc:
        parser.scalar_to_str(Stub())
    assert str(exc.value) == "cannot print Stub" and len(calls) == 1
    # __repr__ still falls back to the type and key of what the printer refuses
    assert repr(Stub()) == "Stub((1, 2))" and len(calls) == 2


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



def test_nesting_is_bounded_before_the_recursion_limit():
    """MAX_DEPTH parentheses parse; one more, or thousands, are a ParseError, not a RecursionError."""
    k = RatFuncField(CycloField(3), "t")
    alg = SymbolAlgebra(k, k.gen(), k.gen() + k.one(), 3)

    def nested(depth, core):
        return "(" * depth + core + ")" * depth

    assert parse_scalar(nested(MAX_DEPTH, "t"), k) == k.gen()
    assert parse_symbol(nested(MAX_DEPTH, "u + t"), alg) == alg.u() + alg.scalar(k.gen())
    # depth counts open parentheses, not parentheses seen: siblings do not add up
    assert parse_scalar("+".join([nested(MAX_DEPTH, "1")] * 3), k) == k.coerce(3)
    for depth in (MAX_DEPTH + 1, 3000):
        for parse, context in ((parse_scalar, k), (parse_symbol, alg)):
            with pytest.raises(ParseError) as info:
                parse(nested(depth, "t"), context)
            assert info.value.position == MAX_DEPTH
            assert str(info.value) == f"parentheses nested deeper than {MAX_DEPTH} at position {MAX_DEPTH}"

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
        calls.append((self, other))
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
    # the scalar scales u^4, and one product of two one-term elements takes v^2
    assert len(calls) == 1 and [len(e.terms) for e in calls[0]] == [1, 1]
    assert x == alg.monomial(4, 2, t * 2 + 1)
    assert parse_symbol("u*u*u*u*v*v*(2*t + 1)", alg) == x


def test_sums_of_monomials_take_no_symbol_arithmetic_and_polynomials_no_gcd(monkeypatch, rng):
    import diffsym.scalars.polys
    import diffsym.scalars.ratfunc
    from diffsym.parser import symbol_to_str
    from diffsym.symalg import SymbolElem

    calls = []
    right_terms = []

    def counting(cls, name):
        original = getattr(cls, name)

        def wrapper(*args):
            calls.append(f"{cls.__name__}.{name}")
            if cls is SymbolElem:
                right_terms.append(len(args[1].terms))
            return original(*args)

        monkeypatch.setattr(cls, name, wrapper)

    for cls, name in ((SymbolElem, "__mul__"), (SymbolElem, "__add__"), (RatFunc, "__mul__"), (RatFunc, "__add__")):
        counting(cls, name)
    def counting_gcd(module, name):
        original = getattr(module, name)

        def wrapper(a, b):
            calls.append("poly_gcd")
            return original(a, b)

        monkeypatch.setattr(module, name, wrapper)

    # Q(w)(t) takes its gcds inside poly_cancel, and every other layer through poly_gcd
    counting_gcd(diffsym.scalars.ratfunc, "poly_cancel")
    counting_gcd(diffsym.scalars.polys, "poly_gcd")
    m = 4
    k = RatFuncField(CycloField(m), "t")
    t, w = k.gen(), k.coerce(k.cyclo.omega())
    alg = SymbolAlgebra(k, t, t + k.one(), m)
    for terms in range(1, m * m + 1):
        x = alg.zero_elem()
        for i, j in rng.sample([(i, j) for i in range(m) for j in range(m)], terms):
            x = x + alg.monomial(i, j, t ** rng.randint(0, 3) * rng.randint(1, 5) + w * rng.randint(-2, 2))
        text = symbol_to_str(x)
        calls.clear()
        right_terms.clear()
        y = parse_symbol(text, alg)
        # each monomial takes one-term products, and each sum adds one term:
        # no coefficient is ever added and no gcd taken
        assert set(right_terms) <= {1}, text
        assert "RatFunc.__add__" not in calls and "poly_gcd" not in calls, text
        assert y == x
    # a polynomial without '/' stays in Q(w)[t]: no gcd and no rational function arithmetic
    for text in ("(w^2 + 3)*t^3 - 2*t*(t + w)^2 + 5", "-(t - 1)^4*(2*w*t + 3)", "t^7 - w^3*t"):
        calls.clear()
        f = parse_scalar(text, k)
        assert calls == [], text
        assert f == field_parse_scalar(text, k)


def test_large_powers_are_rejected_before_any_arithmetic(monkeypatch):
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
    # a symbol element is bounded by its coefficients' t-degree, 40 times 30,
    # before any product of symbol elements
    from diffsym.symalg import SymbolElem

    products = []
    monkeypatch.setattr(SymbolElem, "__mul__", lambda *args: products.append(args))
    with pytest.raises(ParseError) as info:
        parse_symbol("((t^40)*u)^30", alg)
    assert info.value.position == 11 and "exponent 30 too large" in str(info.value)
    assert not products


def test_powers_with_large_integers_are_rejected_before_the_power(monkeypatch):
    k = RatFuncField(CycloField(3), "t")
    with pytest.raises(ParseError) as info:
        parse_scalar("((2^1000)^1000)^100", k)  # 1001 bits times 1000
    assert info.value.position == 10
    assert str(info.value) == (
        f"exponent 1000 too large: coefficient bits * |e| must not exceed {MAX_POWER_BITS} at position 10")
    assert MAX_POWER_BITS == 10_000
    assert parse_scalar("10^401*t^2", k) == k.coerce(10**401) * k.gen() ** 2  # 4 bits times 401
    assert parse_scalar("(2^1000)^9", k) == k.coerce(2**9000)
    assert parse_scalar("(1/3 + w/5)^-1000", k) == (k.coerce(Fraction(1, 3)) + k.coerce(k.cyclo.omega()) / 5) ** -1000
    # u^e is alpha^(e // m): 333 bits of 10^100 times 31
    alg = SymbolAlgebra(k, k.gen() * 10**100, k.gen() + k.one(), 3)
    assert parse_symbol("u^90", alg) == alg.scalar(alg.alpha**30)
    with pytest.raises(ParseError, match="coefficient bits"):
        parse_symbol("u^93", alg)
    # the bound is checked before base^e is computed
    powers = []
    monkeypatch.setattr(_Parser, "_power", lambda self, x, e: powers.append(e))
    with pytest.raises(ParseError, match="coefficient bits"):
        parse_scalar("(" + "9" * 400 + "*t)^100", k)
    assert not powers


def test_products_in_q_w_t_are_bounded_as_powers_are(monkeypatch):
    k = RatFuncField(CycloField(3), "t")
    t = k.gen()
    # each factor is 9,001 bits, under the bound; their product is refused at its '*'
    big = "(2^1000)^9"
    for src, position in ((f"{big}*{big}*t^2", 10), ("*".join([big] * 200) + "*t^2", 10), (f"-{big}*{big}", 11)):
        with pytest.raises(ParseError) as info:
            parse_scalar(src, k)
        assert str(info.value) == (
            f"result of '*' too large: coefficient bits must not exceed {MAX_POWER_BITS} at position {position}")
    with pytest.raises(ParseError) as info:
        parse_scalar("t^600*t^600", k)
    assert str(info.value) == f"result of '*' too large: t-degree must not exceed {MAX_EXPONENT} at position 5"
    # a quotient that lands in Q(w)[t] is bounded too, whatever its rung
    with pytest.raises(ParseError) as info:
        parse_scalar("t^600/t*t^600", k)
    assert info.value.position == 7 and "t-degree" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_scalar(f"2/{big}/{big}", k)
    assert info.value.position == 12 and "coefficient bits" in str(info.value)
    # the refusal comes at the first product past the bound: no larger integer is built
    products = []
    binop = _Parser._binop
    monkeypatch.setattr(_Parser, "_binop", lambda self, *args: products.append(binop(self, *args)) or products[-1])
    with pytest.raises(ParseError):
        parse_scalar("*".join([big] * 200), k)
    assert products == [k.cyclo.coerce(2**18000)]
    monkeypatch.undo()
    assert parse_scalar(f"{big}*t^2", k) == k.coerce(2**9000) * t**2
    assert parse_scalar("t^500*t^500", k) == t**1000


def test_the_whole_expression_is_bounded_once():
    k = RatFuncField(CycloField(3), "t")
    t = k.gen()
    big = "(2^1000)^9"
    # a sum is not sized as it is built, but its value is
    assert parse_scalar(f"{big} + {big}", k) == k.coerce(2**9001)  # 9,002 bits
    with pytest.raises(ParseError) as info:
        parse_scalar("t^999/(t+1) + t^999*t", k)
    assert str(info.value) == f"expression too large: t-degree must not exceed {MAX_EXPONENT} at position 0"
    # a product off Q(w)[t] is sized at its operator, on every rung
    with pytest.raises(ParseError) as info:
        parse_scalar(f"{big}/t*{big}", k)
    assert str(info.value) == f"result of '*' too large: coefficient bits must not exceed {MAX_POWER_BITS} at position 12"
    alg = SymbolAlgebra(k, t, t + k.one(), 3)
    with pytest.raises(ParseError) as info:
        parse_symbol(f"{big}*u*{big}", alg)
    assert str(info.value) == f"result of '*' too large: coefficient bits must not exceed {MAX_POWER_BITS} at position 12"
    with pytest.raises(ParseError) as info:
        parse_symbol("t^600*u*t^600", alg)
    assert str(info.value) == f"result of '*' too large: t-degree must not exceed {MAX_EXPONENT} at position 7"
    assert parse_symbol(f"{big}*u", alg) == alg.u().scale(k.coerce(2**9000))


def test_a_minus_sign_may_precede_any_factor():
    k = RatFuncField(CycloField(3), "t")
    t = k.gen()
    for src, want in (
        ("t*-3", -3 * t),
        ("t/-2", t / -2),
        ("t - -3", t + 3),
        ("t + -3", t - 3),
        ("-t^2", -(t**2)),
        ("-2^2", k.coerce(-4)),
        ("2^-1*-t", -t / 2),
        ("(t+1)*-(t-1)", 1 - t**2),
    ):
        assert parse_scalar(src, k) == want, src
    alg = SymbolAlgebra(k, t, t + k.one(), 3)
    assert parse_symbol("u*-v", alg) == -(alg.u() * alg.v())
    assert parse_symbol("-v*u", alg) == -(alg.v() * alg.u())
    assert parse_symbol("u - -v^2", alg) == alg.u() + alg.v(2)
    # one sign per factor
    for src, position in (("--3", 1), ("t*--3", 3), ("t - - -3", 6)):
        with pytest.raises(ParseError) as info:
            parse_scalar(src, k)
        assert str(info.value) == f"unexpected token '-' at position {position} (expected atom)"


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


# -- the evaluation ladder against the whole-field oracle ----------------------


def _random_expr(rng, depth, atom, divisor, powers):
    """A signed sum of 1-3 terms, each a product or quotient of 1-3 factors; a
    factor after '/' comes from divisor, a parenthesised one may take a power,
    and any one may carry a '-'."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for n in range(rng.randint(1, 3)):
            op = rng.choice("**/") if n else ""
            if op == "/":
                factor = divisor(rng)
            elif depth and rng.random() < 0.3:
                factor = f"({_random_expr(rng, depth - 1, atom, divisor, powers)})"
                if rng.random() < 0.4:
                    factor += f"^{rng.choice(powers)}"
            else:
                factor = atom(rng)
            factors.append(op + ("-" if rng.random() < 0.15 else "") + factor)
        terms.append("".join(factors))
    text = terms[0] + "".join(rng.choice((" + ", " - ")) + term for term in terms[1:])
    return "-" + text if rng.random() < 0.2 else text


def _scalar_atom(rng):
    """An integer 0..9 (0 makes divisions by zero), w or t, possibly to a power in -3..3."""
    r = rng.random()
    if r < 0.4:
        return str(rng.randint(0, 9))
    name = rng.choice(("w", "t"))
    return name if r < 0.7 else f"{name}^{rng.randint(-3, 3)}"


def _corrupt(rng, src):
    """src with a stray character, an unknown name, a doubled sign or a power past a bound inserted."""
    at = rng.randrange(len(src) + 1)
    return src[:at] + rng.choice(("$", ")", "(", "^", "+", " x", "^1001", "^-2000", "2t", "--", "(7^999)^9")) + src[at:]


def _outcome(parse, src, context):
    try:
        return "value", parse(src, context)
    except Exception as exc:  # the oracle's exception is the expected one
        return type(exc), str(exc)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_the_ladder_agrees_with_the_whole_field_oracle(m):
    from random import Random

    from diffsym.symalg import SymbolElem

    k = RatFuncField(CycloField(m), "t")
    alg = SymbolAlgebra(k, k.gen() * 2, k.gen() + k.one(), m)
    rng = Random(f"ladder-oracle:{m}")

    def generator(rng):
        return f"{rng.choice('uv')}^{rng.randint(-m - 1, 2 * m + 1)}"

    def symbol_atom(rng):
        return _scalar_atom(rng) if rng.random() < 0.5 else generator(rng)

    def scalar_divisor(rng):
        return _scalar_atom(rng) if rng.random() < 0.7 else f"({_random_expr(rng, 0, _scalar_atom, _scalar_atom, ())})"

    if m <= 3:
        # any symbol expression may divide, and parenthesised sums take negative powers
        symbol_divisor, powers, depth = symbol_atom, (-1, 0, 2, 3), 2
    else:
        # a minimal-polynomial inverse, or a square of nested sums, is costly here:
        # divide by monomials, and square only sums of atoms from m = 5 on
        def symbol_divisor(rng):
            return f"({_scalar_atom(rng)}*{generator(rng)})" if rng.random() < 0.5 else scalar_divisor(rng)

        powers, depth = (0, 2), 2 if m == 4 else 1
    kinds = set()
    for n in range(40):
        for parse, oracle, context, src in (
            (parse_scalar, field_parse_scalar, k,
             _random_expr(rng, 2, _scalar_atom, scalar_divisor, (-2, -1, 0, 2, 3))),
            (parse_scalar, field_parse_scalar, k.cyclo,
             _random_expr(rng, 1, lambda rng: rng.choice((str(rng.randint(0, 9)), "w")), lambda rng: "w", (-1, 2))),
            (parse_symbol, symbol_elem_parse_symbol, alg, _random_expr(rng, depth, symbol_atom, symbol_divisor, powers)),
        ):
            if n % 4 == 3:
                src = _corrupt(rng, src)
            got, want = _outcome(parse, src, context), _outcome(oracle, src, context)
            assert got == want, src
            kinds.add(want[0] if want[0] != "value" else type(want[1]))
            if want[0] == "value" and isinstance(want[1], SymbolElem):
                # one canonical grid over the coefficient field
                assert all(type(c) is RatFunc for row in got[1].grid for c in row)
    assert {RatFunc, SymbolElem, ParseError, ZeroDivisionError} <= kinds


def test_the_size_bounds_agree_with_the_whole_field_oracle():
    k = RatFuncField(CycloField(3), "t")
    alg = SymbolAlgebra(k, k.gen(), k.gen() + k.one(), 3)
    big = "(2^1000)^9"
    cases = [(parse_scalar, field_parse_scalar, k, src) for src in (
        f"{big}*{big}*t^2", f"-{big}*{big}", f"{big}*t^2", "t^600*t^600", "t^500*t^500", "t^600/t*t^600",
        f"2/{big}/{big}", f"{big}/t*{big}", "t^999/(t+1) + t^999*t", f"{big} + {big}", f"({big} + 1)*(t + 1)",
    )]
    cases += [(parse_scalar, field_parse_scalar, k.cyclo, src) for src in (f"{big}*{big}", f"w*{big}", f"{big}/{big}*{big}")]
    cases += [(parse_symbol, symbol_elem_parse_symbol, alg, src) for src in (
        f"{big}*u*{big}", "t^600*u*t^600", f"{big}*u", f"u*{big}*{big}", f"u + {big}*{big}",
    )]
    refused = 0
    for parse, oracle, context, src in cases:
        got = _outcome(parse, src, context)
        assert got == _outcome(oracle, src, context), src
        refused += got[0] is ParseError
    assert refused == 12


def test_a_sum_whose_denominators_may_pass_the_bound_is_sized_at_its_operator():
    """deg b + deg d past the bound sizes a/b + c/d at its '+' or '-': refused there when it is too large,
    even if a later term would cancel; kept when a shared denominator or a cancellation keeps it small."""
    k = RatFuncField(CycloField(3), "t")
    alg = SymbolAlgebra(k, k.gen(), k.gen() + k.one(), 3)
    refusal = f"result of {{!r}} too large: t-degree must not exceed {MAX_EXPONENT} at position {{}}"
    pinned = {
        "1/(t^600+1) + 1/(t^600+2)": ("+", 12),
        "1/(t^500+1) - 1/(t^501+2)": ("-", 12),
        "1/(t^600+1) + 1/(t^600+2) - 1/(t^600+2)": ("+", 12),
        "t + (1/(t^600+1) - 2/(t^600+3))": ("-", 17),
    }
    for src, (op, position) in pinned.items():
        with pytest.raises(ParseError) as info:
            parse_scalar(src, k)
        assert str(info.value) == refusal.format(op, position)
    accepted = ("1/(t^500+1) + 1/(t^500+2)", "1/(t^600+1) - 2/(t^600+1)", "1/(t^600+1) - 1/(t^600+1)",
                "t^999/(t+1) + t^998")
    # a sum with an operand off k (here in Q(w)[t] or the algebra) is sized with the whole expression
    at_the_end = ("t^999/(t+1) + t^999*t", "u + 1/(t^600+1) + 1/(t^600+2)")
    cases = [(parse_scalar, field_parse_scalar, k, src) for src in (*pinned, *accepted, at_the_end[0])]
    cases += [(parse_symbol, symbol_elem_parse_symbol, alg, src) for src in ("u/(t^600+1) + 1/(t^600+2)", at_the_end[1])]
    for parse, oracle, context, src in cases:
        got = _outcome(parse, src, context)
        assert got == _outcome(oracle, src, context), src
        assert (got[0] is ParseError) == (src in pinned or src in at_the_end), src


def test_generator_powers_are_read_off_without_a_product(monkeypatch):
    """w^e is the field's omega_powers[e mod m] and t^e a monomial: no product in Q(w) or Q(w)[t]."""
    from diffsym.scalars import CycloElem, Poly

    k = RatFuncField(CycloField(5), "t")
    w, t = k.omega(), k.gen()
    expected = {e: w**e for e in range(-11, 12)}
    calls = []
    for cls in (CycloElem, Poly):
        mul = cls.__mul__
        monkeypatch.setattr(cls, "__mul__", lambda x, y, _mul=mul: calls.append(x) or _mul(x, y))
    value = parse_scalar("w^9 + t^7", k)
    assert calls == []
    monkeypatch.undo()
    assert value == w**9 + t**7
    assert all(parse_scalar(f"w^{e}", k) == expected[e] for e in expected)
    assert all(parse_scalar(f"t^{e}", k) == t**e for e in range(0, 12))
    assert parse_scalar("w^-2", k.cyclo) == k.cyclo.omega() ** -2


_MUTATIONS = ("(", ")", "+", "-", "*", "/", "^", "^2", "^-1", "^0", "$", "w", "t", "u", "x", "0", " ", "--",
              "^1001", "(2^1000)^9*", "t^600*", "٣", "é")


def _mutate(rng, src):
    """src with one or two characters deleted, replaced by, or preceded by a token from _MUTATIONS, or swapped."""
    for _ in range(rng.choice((1, 1, 2))):
        at = rng.randrange(len(src) + 1)
        op = rng.randrange(4) if src else 1
        if op == 0:
            src = src[:at] + src[at + 1:]
        elif op == 1:
            src = src[:at] + rng.choice(_MUTATIONS) + src[at:]
        elif op == 2:
            src = src[:at] + rng.choice(_MUTATIONS) + src[at + 1:]
        else:
            src = src[:at] + src[at + 1:at + 2] + src[at:at + 1] + src[at + 2:]
    return src


def test_mutated_cli_queries_agree_with_the_whole_field_oracle(monkeypatch):
    """Seeded mutations of every expression in the cli-queries argv (seed 7, rounds 0-2) parse to the
    oracle's value, or raise its exception with the same message and position."""
    from random import Random

    from diffsym.symalg import SymbolElem

    rng = Random("cli-queries-mutations")
    fields, kinds, n = {}, set(), 0
    for argv in cli_queries_argv(monkeypatch, 7, 3):
        opts = dict(a[2:].split("=", 1) for a in argv if a.startswith("--"))
        m = int(opts.pop("m"))
        k = fields.setdefault(m, RatFuncField(CycloField(m), "t"))
        alg = SymbolAlgebra(k, parse_scalar(opts["alpha"], k), parse_scalar(opts["beta"], k), m) if "alpha" in opts else None
        for option, src in sorted(opts.items()):
            if option in ("du", "dv"):
                parse, oracle, context = parse_symbol, symbol_elem_parse_symbol, alg
            else:
                parse, oracle, context = parse_scalar, field_parse_scalar, k.cyclo if option == "mu" else k
            for _ in range(3):
                text = _mutate(rng, src)
                got, want = _outcome(parse, text, context), _outcome(oracle, text, context)
                assert got == want, (option, text)
                kinds.add(want[0] if want[0] != "value" else type(want[1]))
                n += 1
    assert n > 1000
    assert {RatFunc, SymbolElem, ParseError} <= kinds
    deep = "(" * (MAX_DEPTH + 1) + "t" + ")" * (MAX_DEPTH + 1)
    assert _outcome(parse_scalar, deep, k) == _outcome(field_parse_scalar, deep, k)


def test_an_oversized_product_is_refused_though_later_factors_would_shrink_it():
    """The bound holds at each '*' and '/', so a value past it is never built on, whatever follows."""
    k = RatFuncField(CycloField(3), "t")
    t = k.gen()
    alg = SymbolAlgebra(k, t, t + k.one(), 3)
    big = "(2^1000)^9"
    bits = f"coefficient bits must not exceed {MAX_POWER_BITS}"
    for parse, oracle, context, src, message in (
        (parse_scalar, field_parse_scalar, k, f"{big}/t*{big}/{big}", f"result of '*' too large: {bits} at position 12"),
        (parse_symbol, symbol_elem_parse_symbol, alg, f"u*{big}*{big}/{big}", f"result of '*' too large: {bits} at position 12"),
        (parse_scalar, field_parse_scalar, k, "t^600/(t+1)*t^600/t^600",
         f"result of '*' too large: t-degree must not exceed {MAX_EXPONENT} at position 11"),
    ):
        assert _outcome(parse, src, context) == _outcome(oracle, src, context) == (ParseError, message)
