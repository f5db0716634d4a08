"""Text grammar for scalars, shared by the CLI and the JSON interfaces.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' ['-'] int)?
    atom   := rational | name | '(' expr ')'

A name is one of the generators of the field being parsed (its
``generators()``: w, t, xi, x0, ...).  Whitespace is insignificant.
Printing produces strings that parse back to the same canonical element.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .scalars import CycloElem, KummerElem, Poly, PolyDiffElem, RatFunc
from .symalg import SymbolElem


class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


_TOKEN_RE = re.compile(r"(\d+)|([a-zA-Z][a-zA-Z0-9]*)|([-+*/^()])")
_SPACE_RE = re.compile(r"\s*")
_TOKEN_KINDS = (None, "int", "name", "op")


def _tokenize(src: str):
    tokens = []
    pos = _SPACE_RE.match(src).end()
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        tokens.append((_TOKEN_KINDS[m.lastindex], m.group(), pos))
        pos = _SPACE_RE.match(src, m.end()).end()
    tokens.append(("end", "", len(src)))
    return tokens


# Largest |exponent|, and largest t-degree a power may reach: the cost of a
# power grows quadratically with its t-degree, so larger ones are usage errors.
MAX_EXPONENT = 1000


def _t_degree(x) -> int:
    """max(deg num, deg den) of a rational function; the largest over the coefficients of a
    tower or symbol element; 0 for constants."""
    if isinstance(x, RatFunc):
        return max(x.num.degree, x.den.degree)
    if isinstance(x, KummerElem):
        parts = x.terms.values()
    elif isinstance(x, PolyDiffElem):
        parts = x.terms.values()
    elif isinstance(x, SymbolElem):
        parts = (c for row in x.grid for c in row)
    else:
        return 0
    return max((_t_degree(c) for c in parts), default=0)


_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _Parser:
    def __init__(self, src: str, context):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.context = context

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"unexpected token {val!r}", pos, expected=repr(op))
        return self.advance()

    def parse(self):
        value = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos, expected="end of input")
        return value

    def expr(self):
        negate = False
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                value = self._binop(val, value, self.term())
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                value = self._binop(val, value, self.factor())
            else:
                return value

    def _binop(self, op: str, a, b):
        return _BINOPS[op](a, b)

    def factor(self):
        value = self.atom()
        e = self.exponent(value)
        return value if e == 1 else value ** e

    def exponent(self, base, period: int = 1) -> int:
        """The integer e after an optional '^' (1 without one).

        |e| and the t-degree of base^(e // period) are bounded; the period is m
        for u^e = alpha^(e // m) u^(e mod m), and 1 for a plain power.
        """
        kind, val, pos = self.peek()
        if kind != "op" or val != "^":
            return 1
        self.advance()
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            sign = -1
        kind, val, pos = self.peek()
        if kind != "int":
            raise ParseError(f"unexpected token {val!r}", pos, expected="integer exponent")
        self.advance()
        e = sign * int(val)
        if abs(e) > MAX_EXPONENT or _t_degree(base) * abs(e // period) > MAX_EXPONENT:
            raise ParseError(
                f"exponent {val} too large: |e| and t-degree * |e| must not exceed {MAX_EXPONENT}", pos)
        return e

    def atom(self):
        kind, val, pos = self.peek()
        if kind == "int":
            self.advance()
            return self.context.coerce(Fraction(int(val)))
        if kind == "name":
            self.advance()
            return self._resolve_name(val, pos)
        if kind == "op" and val == "(":
            self.advance()
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {val!r}", pos, expected="atom")

    def _resolve_name(self, name: str, pos: int):
        value = self.context.generators().get(name)
        if value is None:
            raise ParseError(f"undefined symbol {name!r} for this context", pos)
        return value


def parse_scalar(src: str, context):
    """Parse an expression in the scalar grammar into an element of context."""
    return _Parser(src, context).parse()


class _SymbolParser(_Parser):
    """The scalar grammar over the coefficient field, plus the generators u and v.

    Scalar subexpressions stay elements of the coefficient field; a scalar is
    lifted into the algebra only where it meets a symbol element, and a
    product of the two is a scaling rather than a symbol product.  Powers of
    u and v are built in closed form.
    """

    def __init__(self, src: str, algebra):
        super().__init__(src, algebra.field)
        self.algebra = algebra

    def _binop(self, op, a, b):
        a_symbol, b_symbol = isinstance(a, SymbolElem), isinstance(b, SymbolElem)
        if a_symbol != b_symbol:
            if op == "*":
                return a.scale(b) if a_symbol else b.scale(a)
            if a_symbol:
                b = self.algebra.scalar(b)
            else:
                a = self.algebra.scalar(a)
        return super()._binop(op, a, b)

    def factor(self):
        kind, name, _ = self.peek()
        if kind == "name" and name in ("u", "v"):
            # u^i and v^j in closed form, with no symbol product
            self.advance()
            alg = self.algebra
            power, radicand = (alg.u, alg.alpha) if name == "u" else (alg.v, alg.beta)
            return power(self.exponent(radicand, alg.m))
        return super().factor()


def parse_symbol(src: str, algebra):
    """Parse the scalar grammar extended by the generators u and v."""
    value = _SymbolParser(src, algebra).parse()
    return value if isinstance(value, SymbolElem) else algebra.scalar(value)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _frac_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _mono(var: str, i: int) -> str | None:
    """var^i; var^1 prints as var, and var^0 as None (no monomial)."""
    if i == 0:
        return None
    return var if i == 1 else f"{var}^{i}"


def _rational_term(q: Fraction, mono: str | None) -> tuple:
    """(q < 0, |q|*mono), with a unit magnitude dropped before a monomial."""
    mag = abs(q)
    if mono is None:
        return q < 0, _frac_str(mag)
    return q < 0, mono if mag == 1 else f"{_frac_str(mag)}*{mono}"


def _signed_sum(terms) -> str:
    """(negative, body) pairs, highest power first, joined as -a + b - c; 0 for no terms."""
    s = "".join(f" - {body}" if negative else f" + {body}" for negative, body in terms)
    if not s:
        return "0"
    return f"-{s[3:]}" if s[1] == "-" else s[3:]


def _cyclo_str(c: CycloElem) -> str:
    q = c.coeffs
    return _signed_sum(_rational_term(q[i], _mono("w", i)) for i in range(len(q) - 1, -1, -1) if q[i])


def _cyclo_factor_str(c: CycloElem) -> str:
    """A cyclotomic coefficient, parenthesized unless it is a single product-safe atom."""
    s = _cyclo_str(c)
    if re.fullmatch(r"-?\d+|w(\^\d+)?|\d+\*w(\^\d+)?", s):
        return s
    return f"({s})"


def _poly_str(p: Poly, var: str) -> str:
    terms = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c.is_zero():
            continue
        mono = _mono(var, i)
        if c.is_rational():
            terms.append(_rational_term(c.rational_value(), mono))
        else:
            cs = _cyclo_factor_str(c)
            terms.append((False, cs if mono is None else f"{cs}*{mono}"))
    return _signed_sum(terms)


def _ratfunc_str(f: RatFunc) -> str:
    var = f.parent.var
    num = _poly_str(f.num, var)
    if f.den.degree == 0:
        return num
    # numerator and denominator go bare when each is one unsigned atom or a group
    return f"{_wrap(num)}/{_wrap(_poly_str(f.den, var))}"


def _is_group(s: str) -> bool:
    """True when s is one parenthesized group: its first '(' closes at its last character."""
    if not s.startswith("("):
        return False
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return i == len(s) - 1
    return False


def _wrap(s: str) -> str:
    if re.fullmatch(r"\d+|[a-zA-Z][a-zA-Z0-9]*(\^-?\d+)?", s) or _is_group(s):
        return s
    return f"({s})"


def _term_str(c, names, exps) -> str:
    """c * name_0^e_0 * ... in the grammar, dropping a unit coefficient."""
    cs = _wrap(scalar_to_str(c))
    monos = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
    if monos and cs == "1":
        return "*".join(monos)
    return "*".join([cs] + monos)


def _kummer_str(x: KummerElem) -> str:
    name = x.parent.gen_name
    parts = [_term_str(x.terms[i], [name], [i]) for i in sorted(x.terms)]
    return " + ".join(parts) if parts else "0"


def _polydiff_str(x: PolyDiffElem) -> str:
    parts = [_term_str(x.terms[exps], x.parent.names, exps) for exps in sorted(x.terms)]
    return " + ".join(parts) if parts else "0"


def scalar_to_str(x) -> str:
    """Print any scalar element in the grammar; parse_scalar round-trips it."""
    if isinstance(x, (int, Fraction)):
        return _frac_str(Fraction(x))
    if isinstance(x, CycloElem):
        return _cyclo_str(x)
    if isinstance(x, RatFunc):
        return _ratfunc_str(x)
    if isinstance(x, KummerElem):
        return _kummer_str(x)
    if isinstance(x, PolyDiffElem):
        return _polydiff_str(x)
    raise TypeError(f"cannot print {x!r}")


def symbol_to_str(x) -> str:
    """Print a symbol algebra element as a sum of c*u^i*v^j; parse_symbol round-trips it."""
    parts = [
        _term_str(c, "uv", (i, j)) for i, row in enumerate(x.grid) for j, c in enumerate(row) if not c.is_zero()
    ]
    return " + ".join(parts) if parts else "0"
