"""Text grammar for scalars, shared by the CLI and the JSON interfaces.

    expr   := term (('+'|'-') term)*
    term   := ['-'] factor (('*'|'/') ['-'] factor)*
    factor := atom ('^' ['-'] int)?
    atom   := int | name | '(' expr ')'

A '-' negates the factor after it: ``t*-3`` is ``-3*t``, ``t - -3`` is
``t + 3`` and ``-t^2`` is -(t^2).

A name is one of the generators of the field being parsed (its
``generators()``: w, t, xi, x0, ...).  Whitespace is insignificant.  The
source is split by one ``findall`` into plain string tokens, ending in the
sentinel ``""``, which the parser reads by index; a token's position in the
source is computed only when an error reports it.

Evaluation keeps each scalar subexpression in the smallest ring that holds
it (``_Parser``) and returns the same canonical element as evaluating
everything in the context itself.  A power of a generator of Q(w)(t) is
read off, not multiplied out: w^e from the field's ``omega_powers``, t^e as
a monomial.  Printing produces strings that parse back to the same
canonical element.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from itertools import islice
from math import gcd

from .scalars import CycloElem, KummerElem, Poly, PolyDiffElem, RatFunc, RatFuncField
from .scalars.elem import SparseElem
from .scalars.polys import _poly
from .scalars.ratfunc import _ratfunc
from .symalg import SymbolElem


class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


_TOKEN_RE = re.compile(r"\d+|[a-zA-Z][a-zA-Z0-9]*|[-+*/^()]")
# a character that is neither whitespace nor part of a token
_BAD_CHAR_RE = re.compile(r"[^\s\da-zA-Z()^*/+-]")


def _tokenize(src: str) -> list:
    """The tokens of src as strings, then the end sentinel ""."""
    bad = _BAD_CHAR_RE.search(src)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    tokens = _TOKEN_RE.findall(src)
    tokens.append("")
    return tokens


# Largest |exponent|, and largest t-degree a power, a product, a sum sized at
# its operator or a whole expression may reach: the cost of a power grows
# quadratically with its t-degree, so larger ones are usage errors.
MAX_EXPONENT = 1000
# Largest |e| times the bit length of the largest integer in the base, and the
# largest bit length in a product, a sum sized at its operator or a whole
# expression: no value that parses
# holds an integer past Python's 4,300-digit limit on printing one.
MAX_POWER_BITS = 10_000
# Deepest nesting of parentheses: each level takes a few Python frames, so a
# deeper one would exhaust the interpreter's recursion limit.
MAX_DEPTH = 100


def _bits(coeffs) -> int:
    """Bit length of the largest integer among the numerators and denominators of Q(w) elements."""
    top = 0
    for c in coeffs:
        for n in c.num:
            if n > top:
                top = n
            elif -n > top:
                top = -n
        if c.den > top:
            top = c.den
    return top.bit_length()


def _size(x) -> tuple:
    """(t-degree, bit length of the largest integer) of x's canonical form.

    The t-degree of a rational function is max(deg num, deg den), and of a
    constant 0; a tower or symbol element takes the largest over its coefficients.
    """
    kind = type(x)
    if kind is RatFunc:
        num, den = x.num.coeffs, x.den.coeffs
        return max(len(num), len(den)) - 1, _bits(num + den)
    if kind is Poly:
        return max(len(x.coeffs) - 1, 0), _bits(x.coeffs)
    if kind is CycloElem:
        return 0, _bits((x,))
    degree = bits = 0
    if isinstance(x, SparseElem):
        for c in x.terms.values():
            d, b = _size(c)
            if d > degree:
                degree = d
            if b > bits:
                bits = b
    return degree, bits


_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_SUM_OPS = frozenset("+-")
_PRODUCT_OPS = frozenset("*/")

# The rung of a value: Q(w), Q(w)[t], the context field.  An element of any
# other context field is on rung 2.
_RANKS = {CycloElem: 0, Poly: 1}


def _rank(x) -> int:
    return _RANKS.get(type(x), 2)


class _Parser:
    """Recursive descent over the tokens, evaluating as it goes.

    Over k = Q(w)(t) a value lives on the lowest rung of Q(w) < Q(w)[t] < k
    that holds it: integers and w are in Q(w), and t is a polynomial.  It is
    lifted when an operation needs a larger ring, or once at the end.  Over
    any other context the ladder has one rung, the context itself.
    """

    def __init__(self, src: str, context):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0
        self.context = context
        self.ladder = isinstance(context, RatFuncField)
        # the generators whose powers are read off: w and t on the ladder
        self.w = self.t = None
        if self.ladder:
            self.literals = cyclo = context.cyclo
            self.w, self.t = cyclo.omega(), Poly.gen(cyclo)
            self.names = {**cyclo.generators(), context.var: self.t}
        else:
            self.literals, self.names = context, context.generators()

    def _error(self, message: str, i: int, expected: str | None = None) -> ParseError:
        """A ParseError at token i: the end sentinel is at len(src), any other token where its match starts."""
        if i == len(self.tokens) - 1:
            position = len(self.src)
        else:
            position = next(islice(_TOKEN_RE.finditer(self.src), i, None)).start()
        return ParseError(message, position, expected)

    def _check_size(self, x, i: int | None = None):
        """Refuse x, the result of the operator at token i or (i None) the whole expression,
        past the bounds a power obeys."""
        degree, bits = _size(x)
        if degree > MAX_EXPONENT or bits > MAX_POWER_BITS:
            if degree > MAX_EXPONENT:
                bound = f"t-degree must not exceed {MAX_EXPONENT}"
            else:
                bound = f"coefficient bits must not exceed {MAX_POWER_BITS}"
            if i is None:
                raise ParseError(f"expression too large: {bound}", 0)
            raise self._error(f"result of {self.tokens[i]!r} too large: {bound}", i)

    def parse(self):
        value = self.expr()
        tok = self.tokens[self.i]
        if tok:
            raise self._error(f"trailing input {tok!r}", self.i, expected="end of input")
        self._check_size(value)
        return value

    def expr(self):
        value = self.term()
        tokens = self.tokens
        while (op := tokens[self.i]) in _SUM_OPS:
            at = self.i
            self.i += 1
            b = self.term()
            # the denominator of a/b + c/d divides b d: when deg b + deg d, read off
            # the coefficient tuples' lengths, passes the bound, the sum is sized at
            # its operator (an operand off k has denominator 1, and every value in k
            # has a denominator within the bound)
            oversized = (type(value) is RatFunc and type(b) is RatFunc
                         and len(value.den.coeffs) + len(b.den.coeffs) - 2 > MAX_EXPONENT)
            value = self._binop(op, value, b)
            if oversized:
                self._check_size(value, at)
        return value

    def term(self):
        value = self.signed_factor()
        tokens = self.tokens
        while (op := tokens[self.i]) in _PRODUCT_OPS:
            at = self.i
            self.i += 1
            value = self._binop(op, value, self.signed_factor())
            # every product and quotient is bounded as a power is, at its operator
            self._check_size(value, at)
        return value

    def signed_factor(self):
        if self.tokens[self.i] == "-":
            self.i += 1
            return -self.factor()
        return self.factor()

    # -- the scalar ladder ---------------------------------------------------

    def _binop(self, op: str, a, b):
        """a op b on the higher rung of the two; a / b is a times the inverse of b."""
        if op == "/":
            op, b = "*", self._inv(b)
        if type(a) is not type(b):
            rank = max(_rank(a), _rank(b))
            a, b = self._lift(a, rank), self._lift(b, rank)
        return _BINOPS[op](a, b)

    def _lift(self, x, rank: int = 2):
        """x on the scalar rung rank, if it is on a lower one (by default in k itself)."""
        r = _rank(x)
        if r >= rank or not self.ladder:
            return x
        k = self.context
        if r == 0:
            return _poly(x.parent, [x]) if rank == 1 else k._constant(x)
        return _ratfunc(k, x, k._one_poly)

    def _inv(self, x):
        """x^-1 as RatFunc.inv computes it: a constant in Q(w), a non-constant polynomial in k."""
        if type(x) is Poly:
            x = self._lift(x) if x.degree > 0 else x.coeff(0)
        if self.ladder and type(x) is CycloElem:
            if x.is_zero():
                raise ZeroDivisionError("inverse of zero")
            if x == x.parent.one():
                return x
        return x.inv()

    def _power(self, x, e: int):
        return self._inv(x) ** -e if e < 0 else x**e

    def factor(self):
        value = self.atom()
        if self.tokens[self.i] != "^":
            return value
        e = self.exponent(value)
        if value is self.w:
            return self.literals.omega_powers[e % self.literals.m]
        if value is self.t and e >= 0:
            return Poly.monomial(self.literals, e)
        return value if e == 1 else self._power(value, e)

    def exponent(self, base, period: int = 1) -> int:
        """The integer e after an optional '^' (1 without one).

        |e|, the t-degree of base^(e // period) and its integers' bit length
        are bounded; the period is m for u^e = alpha^(e // m) u^(e mod m), and 1
        for a plain power.
        """
        tokens = self.tokens
        if tokens[self.i] != "^":
            return 1
        self.i += 1
        sign = 1
        if tokens[self.i] == "-":
            self.i += 1
            sign = -1
        at = self.i
        val = tokens[at]
        if not val.isdigit():
            raise self._error(f"unexpected token {val!r}", at, expected="integer exponent")
        self.i += 1
        e = sign * int(val)
        n = abs(e // period)
        degree, bits = _size(base) if n else (0, 0)
        if abs(e) > MAX_EXPONENT or degree * n > MAX_EXPONENT:
            raise self._error(
                f"exponent {val} too large: |e| and t-degree * |e| must not exceed {MAX_EXPONENT}", at)
        if bits * n > MAX_POWER_BITS:
            raise self._error(
                f"exponent {val} too large: coefficient bits * |e| must not exceed {MAX_POWER_BITS}", at)
        return e

    def atom(self):
        tok = self.tokens[self.i]
        if tok.isdigit():
            self.i += 1
            return self.literals.coerce(int(tok))
        value = self.names.get(tok)
        if value is not None:
            self.i += 1
            return value
        if tok == "(":
            if self.depth == MAX_DEPTH:
                raise self._error(f"parentheses nested deeper than {MAX_DEPTH}", self.i)
            self.i += 1
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            tok = self.tokens[self.i]
            if tok != ")":
                raise self._error(f"unexpected token {tok!r}", self.i, expected="')'")
            self.i += 1
            return value
        # a name starts with a letter, and no other token does
        if tok[:1].isalpha():
            raise self._error(f"undefined symbol {tok!r} for this context", self.i)
        raise self._error(f"unexpected token {tok!r}", self.i, expected="atom")


def parse_scalar(src: str, context):
    """Parse an expression in the scalar grammar into an element of context."""
    parser = _Parser(src, context)
    return parser._lift(parser.parse())


class _SymbolParser(_Parser):
    """The scalar grammar over the coefficient field, plus the generators u and v.

    u^e and v^e are one-term SymbolElems.  A scalar stays on the ladder until
    it meets a symbol element: there ``*`` scales the element, and every other
    operation lifts the scalar with ``algebra.scalar``.
    """

    def __init__(self, src: str, algebra):
        super().__init__(src, algebra.field)
        self.algebra = algebra

    def factor(self):
        name = self.tokens[self.i]
        if name == "u" or name == "v":
            # u^e = alpha^(e // m) u^(e mod m), and likewise v^e
            self.i += 1
            alg = self.algebra
            if name == "u":
                return alg.u(self.exponent(alg.alpha, alg.m))
            return alg.v(self.exponent(alg.beta, alg.m))
        return super().factor()

    def _element(self, x) -> SymbolElem:
        """x itself if it is a symbol element, else the scalar x lifted into the algebra."""
        return x if type(x) is SymbolElem else self.algebra.scalar(self._lift(x))

    def _binop(self, op, a, b):
        a_symbol, b_symbol = type(a) is SymbolElem, type(b) is SymbolElem
        if not (a_symbol or b_symbol):
            return super()._binop(op, a, b)
        if op == "/" and not b_symbol:
            op, b = "*", self._inv(b)
        if op == "*" and a_symbol != b_symbol:
            # a scalar is central, so no commutation
            return a.scale(self._lift(b)) if a_symbol else b.scale(self._lift(a))
        return _BINOPS[op](self._element(a), self._element(b))


def parse_symbol(src: str, algebra):
    """Parse the scalar grammar extended by the generators u and v."""
    parser = _SymbolParser(src, algebra)
    return parser._element(parser.parse())


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _frac_str(n: int, d: int) -> str:
    """The rational n/d, given in lowest terms with d > 0."""
    return str(n) if d == 1 else f"{n}/{d}"


def _mono(var: str, i: int) -> str | None:
    """var^i; var^1 prints as var, and var^0 as None (no monomial)."""
    if i == 0:
        return None
    return var if i == 1 else f"{var}^{i}"


def _rational_term(n: int, d: int, mono: str | None) -> tuple:
    """(n < 0, |n/d|*mono) for n/d in lowest terms with d > 0, a unit magnitude dropped before a monomial."""
    mag = _frac_str(abs(n), d)
    if mono is None:
        return n < 0, mag
    return n < 0, mono if mag == "1" else f"{mag}*{mono}"


def _signed_sum(terms) -> str:
    """(negative, body) pairs, highest power first, joined as -a + b - c; 0 for no terms."""
    s = "".join(f" - {body}" if negative else f" + {body}" for negative, body in terms)
    if not s:
        return "0"
    return f"-{s[3:]}" if s[1] == "-" else s[3:]


def _cyclo_str(c: CycloElem) -> str:
    # the coefficient of w^i is num[i]/den, reduced by their gcd
    num, den = c.num, c.den
    terms = []
    for i in range(len(num) - 1, -1, -1):
        n = num[i]
        if n:
            g = gcd(n, den)
            terms.append(_rational_term(n // g, den // g, _mono("w", i)))
    return _signed_sum(terms)


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
            # num[0]/den is in lowest terms when the other entries of num are 0
            terms.append(_rational_term(c.num[0], c.den, mono))
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


def _terms_str(x: SparseElem, names, pairs, order=None) -> str:
    """x as c * name_i^e_i * ... + ... over the (i, e_i != 0) of pairs(key), sorted by order(key).

    A unit coefficient is dropped.
    """
    parts = []
    for key in sorted(x.terms, key=order):
        cs = _wrap(scalar_to_str(x.terms[key]))
        monos = [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in pairs(key)]
        parts.append("*".join(monos if monos and cs == "1" else [cs] + monos))
    return " + ".join(parts) if parts else "0"


def _dense_order(key: tuple) -> tuple:
    """A sort key on PolyDiffElem keys in the order of their dense exponent tuples.

    The tuples first differ where the keys first differ or one ends.  There,
    against a 0 (a later index, or the end), the key with e_i sorts after iff
    e_i > 0: hence (0, i, e) < (1,), the end, < (2, -i, e).
    """
    return tuple((0, i, e) if e < 0 else (2, -i, e) for i, e in key) + ((1,),)


def _nonzero_pairs(key: tuple) -> tuple:
    """The (i, e_i) with e_i != 0 of a dense exponent tuple."""
    return tuple((i, e) for i, e in enumerate(key) if e)


def scalar_to_str(x) -> str:
    """Print any scalar element in the grammar; parse_scalar round-trips it."""
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        return _frac_str(q.numerator, q.denominator)
    if isinstance(x, CycloElem):
        return _cyclo_str(x)
    if isinstance(x, RatFunc):
        return _ratfunc_str(x)
    if isinstance(x, KummerElem):
        return _terms_str(x, (x.parent.gen_name,), lambda i: ((0, i),) if i else ())
    if isinstance(x, PolyDiffElem):
        return _terms_str(x, x.parent.names, tuple, _dense_order)
    # the type's name, not repr(x): FieldElem.__repr__ prints through this function
    raise TypeError(f"cannot print {type(x).__name__}")


def symbol_to_str(x) -> str:
    """Print a symbol algebra element as a sum of c*u^i*v^j; parse_symbol round-trips it."""
    return _terms_str(x, "uv", _nonzero_pairs)
