"""Text grammar for scalars, shared by the CLI and the JSON interfaces.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' int)?
    atom   := rational | 'w' | 't' | 'xi' | 'x'int | '(' expr ')'

Whitespace is insignificant.  Printing produces strings that parse back to
the same canonical element.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .scalars import (
    CycloElem,
    CycloField,
    KummerElem,
    KummerField,
    Poly,
    PolyDiffElem,
    PolyDiffField,
    RatFunc,
    RatFuncField,
)


class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([a-zA-Z][a-zA-Z0-9]*)|([-+*/^()]))")


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m or m.end() == pos and not m.group(0).strip():
            if src[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if m.group(0).strip() == "" and m.end() > pos:
            pos = m.end()
            continue
        kind = "int" if m.group(1) else ("name" if m.group(2) else "op")
        tokens.append((kind, m.group(1) or m.group(2) or m.group(3), m.start()))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


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
                rhs = self.term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                if val == "*":
                    value = value * rhs
                else:
                    value = value / rhs
            else:
                return value

    def factor(self):
        value = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
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
            value = value ** (sign * int(val))
        return value

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
        context = self.context
        if name == "w":
            return context.coerce(_cyclo_of(context).omega())
        if name == "t":
            f = _ratfunc_of(context)
            if f is None:
                raise ParseError("symbol 't' undefined in this context", pos)
            return context.coerce(f.gen())
        # monomial variable x<int>
        if isinstance(context, PolyDiffField) and name in context.names:
            return context.gen(context.names.index(name))
        # Kummer generator by name, anywhere in the tower
        f = context
        while f is not None:
            if isinstance(f, KummerField) and f.gen_name == name:
                return context.coerce(f.gen())
            f = getattr(f, "base", None)
        raise ParseError(f"undefined symbol {name!r} for this context", pos)


def _cyclo_of(field) -> CycloField:
    if isinstance(field, CycloField):
        return field
    return field.cyclo


def _ratfunc_of(field):
    f = field
    while f is not None:
        if isinstance(f, RatFuncField):
            return f
        f = getattr(f, "base", None)
    return None


def parse_scalar(src: str, context):
    """Parse an expression in the scalar grammar into an element of context."""
    return _Parser(src, context).parse()


class _AlgebraContext:
    """Adapter letting _Parser build symbol-algebra elements: scalars are
    lifted to scalar elements, and the tower walk for named generators still
    sees the coefficient field through .base."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.base = algebra.field

    @property
    def cyclo(self):
        return self.algebra.field.cyclo

    def coerce(self, x):
        from .symalg import SymbolElem

        if isinstance(x, SymbolElem):
            return x
        return self.algebra.scalar(x)


class _SymbolParser(_Parser):
    def _resolve_name(self, name, pos):
        if name == "u":
            return self.context.algebra.u()
        if name == "v":
            return self.context.algebra.v()
        return super()._resolve_name(name, pos)


def parse_symbol(src: str, algebra):
    """Parse the scalar grammar extended by the generators u and v."""
    return _SymbolParser(src, _AlgebraContext(algebra)).parse()


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _frac_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _cyclo_str(c: CycloElem) -> str:
    parts = []
    for i in range(len(c.coeffs) - 1, -1, -1):
        q = c.coeffs[i]
        if q == 0:
            continue
        if i == 0:
            mono = None
        elif i == 1:
            mono = "w"
        else:
            mono = f"w^{i}"
        if mono is None:
            body = _frac_str(abs(q))
        elif abs(q) == 1:
            body = mono
        else:
            body = f"{_frac_str(abs(q))}*{mono}"
        if not parts:
            parts.append(body if q > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if q > 0 else f" - {body}")
    if not parts:
        return "0"
    return "".join(parts)


def _cyclo_factor_str(c: CycloElem) -> str:
    """A cyclotomic coefficient, parenthesized unless it is a single product-safe atom."""
    s = _cyclo_str(c)
    if re.fullmatch(r"-?\d+|w(\^\d+)?|\d+\*w(\^\d+)?", s):
        return s
    return f"({s})"


def _poly_str(p: Poly, var: str) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeff(i)
        if c.is_zero():
            continue
        if i == 0:
            mono = None
        elif i == 1:
            mono = var
        else:
            mono = f"{var}^{i}"
        if c.is_rational():
            q = c.rational_value()
            sign = "-" if q < 0 else "+"
            mag = abs(q)
            if mono is None:
                body = _frac_str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{_frac_str(mag)}*{mono}"
        else:
            sign = "+"
            cs = _cyclo_factor_str(c)
            body = cs if mono is None else f"{cs}*{mono}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" + {body}" if sign == "+" else f" - {body}")
    return "".join(parts)


def _ratfunc_str(f: RatFunc) -> str:
    var = f.parent.var
    num = _poly_str(f.num, var)
    if f.den.degree == 0:
        return num
    return f"({num})/({_poly_str(f.den, var)})"


def _wrap(s: str) -> str:
    if re.fullmatch(r"\d+|[a-zA-Z][a-zA-Z0-9]*(\^-?\d+)?", s):
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
    parts = [_term_str(c, [name], [i]) for i, c in enumerate(x.coeffs) if not c.is_zero()]
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
