"""Kummer extensions E = F(xi), xi^m = alpha, with the induced derivation.

The unique derivation extending the base one satisfies
delta_E(xi) = delta(alpha)/(m*alpha) * xi; this is checked at construction
together with an irreducibility certificate for z^m - alpha.

A non-monomial is inverted by conjugates (Lang, Algebra, ch. VI 8), one prime
p of m at a time: the twists xi^s -> z^j xi^s, z a primitive p-th root of
unity in Q(w), fix F(xi^(sp)), so the product of an element of F(xi^s) and
its p - 1 twists lies there.  z is w^(n/p) for n the cyclotomic level, or -1
for p = 2, so every odd prime of m must divide n.
"""

from __future__ import annotations

from ..errors import SelfCheckError
from .elem import Extension, SparseElem, nonzero_terms
from .powers import (
    ReducibleRadicandError,
    _prime_factors,
    certify_power_free_over_kummer,
    kummer_vahlen_certify,
)
from .ratfunc import RatFuncField


class KummerField(Extension):
    """F(xi) with xi^m = alpha; base F is Q(w)(t) or another Kummer field."""

    def __init__(self, base, alpha, m: int, gen_name: str = "xi", gen_rate=None):
        alpha = base.coerce(alpha)
        if alpha.is_zero():
            raise ReducibleRadicandError("radicand must be nonzero")
        if m < 2:
            raise ValueError("extension degree must be at least 2")
        n = base.cyclo.m
        for p in _prime_factors(m):
            if p != 2 and n % p:
                raise ValueError(f"degree {m} has the odd prime {p}, which does not divide the cyclotomic level {n}")
        super().__init__(base, KummerElem)
        self.alpha = alpha
        self.m = m
        self.gen_name = gen_name
        self._certify_irreducible()
        # delta_E(xi) = delta(alpha)/(m*alpha) * xi; a caller that holds this rate
        # passes it, and the consistency check below verifies it either way
        self.gen_rate = alpha.derive() / (alpha * m) if gen_rate is None else base.coerce(gen_rate)
        self._check_derivation_consistency()
        self._name_generators({gen_name: self.gen()}, base)

    # -- construction checks -------------------------------------------

    def _certify_irreducible(self):
        base = self.base
        if isinstance(base, RatFuncField):
            kummer_vahlen_certify(self.alpha, self.m)
            return
        if isinstance(base, KummerField) and isinstance(base.base, RatFuncField):
            # alpha is a KummerElem over the bottom field Q(w)(t)
            if not self.alpha.is_base():
                raise ReducibleRadicandError(
                    "can only certify tower radicands that come from the bottom field"
                )
            certify_power_free_over_kummer(base.alpha, base.m, self.alpha.base_value(), self.m)
            return
        raise ReducibleRadicandError("unsupported tower shape for irreducibility check")

    def _check_derivation_consistency(self):
        # delta(xi^m) = m xi^(m-1) delta_E(xi) = m rate xi^m must equal delta(alpha);
        # with xi^m = alpha that is m rate alpha = delta(alpha), one identity in the base
        if not self.gen_rate * self.alpha * self.m == self.alpha.derive():
            raise SelfCheckError("Kummer derivation rule is inconsistent")

    # -- descriptor protocol ---------------------------------------------

    @property
    def is_zero_derivation(self) -> bool:
        return self.base.is_zero_derivation

    def gen(self) -> "KummerElem":
        return _kummer(self, {1: self._base_one})

    def _constant(self, c) -> "KummerElem":
        return _kummer(self, {0: c})

    def __eq__(self, other):
        return (
            isinstance(other, KummerField)
            and other.base == self.base
            and other.m == self.m
            and other.alpha == self.alpha
            and other.gen_name == self.gen_name
        )

    def __hash__(self):
        return hash(("KummerField", self.m, self.gen_name))

    def __repr__(self):
        return f"{self.base!r}({self.gen_name}; {self.gen_name}^{self.m}=...)"


class KummerElem(SparseElem):
    """Element sum c_i xi^i (0 <= i < m), stored sparsely as ``terms``, {i: c_i}.

    The c_i are nonzero elements of the base field (see ``SparseElem``), so a
    zero coefficient costs nothing anywhere in a tower.
    ``KummerElem(parent, coeffs)`` takes the dense vector (c_0, ..., c_{m-1}),
    coerces it and drops the zeros; arithmetic builds through the trusted
    ``_kummer``.
    """

    __slots__ = ("parent", "terms")

    def __init__(self, parent: KummerField, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != parent.m:
            raise ValueError("coefficient vector has the wrong length")
        self.parent = parent
        self.terms = nonzero_terms(enumerate(coeffs), parent.base.coerce)

    def _with(self, terms: dict) -> "KummerElem":
        return _kummer(self.parent, terms)

    @property
    def coeffs(self) -> tuple:
        """The dense vector (c_0, ..., c_{m-1}), zeros included; a read-only view."""
        zero = self.parent.base.zero()
        terms = self.terms
        return tuple(terms.get(i, zero) for i in range(self.parent.m))

    def is_base(self) -> bool:
        return self.terms.keys() <= {0}

    def base_value(self):
        if not self.is_base():
            raise ValueError("element does not lie in the base field")
        c = self.terms.get(0)
        return self.parent.base.zero() if c is None else c

    def __add__(self, other):
        if type(other) is not KummerElem or other.parent is not self.parent:
            other = self.parent.coerce(other)
        return self._plus(other)

    __radd__ = __add__

    def __mul__(self, other):
        parent = self.parent
        if type(other) is not KummerElem or other.parent is not parent:
            other = parent.coerce(other)
        x, y = self.terms, other.terms
        one = parent._base_one
        if not x or len(y) == 1 and y.get(0) is one:
            return self
        if not y or len(x) == 1 and x.get(0) is one:
            return other
        # a factor in the base multiplies coefficient by coefficient, with no
        # reduction by xi^m = alpha; the base is a field, so no product is zero
        if len(x) == 1 and 0 in x:
            x, y = y, x
        if len(y) == 1 and 0 in y:
            c = y[0]
            return _kummer(parent, {i: a * c for i, a in x.items()})
        m = parent.m
        alpha = parent.alpha
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                k = i + j
                term = a * b
                if k >= m:
                    k -= m
                    term = term * alpha
                c = out.get(k)
                out[k] = term if c is None else c + term
        return _kummer(parent, {k: c for k, c in out.items() if not c.is_zero()})

    __rmul__ = __mul__

    def inv(self) -> "KummerElem":
        """The inverse; closed form for a monomial c xi^k, by the conjugates otherwise.

        (c xi^k)^-1 is c^-1 for k = 0 and (c alpha)^-1 xi^(m-k) for k > 0,
        since xi^m = alpha.
        """
        terms = self.terms
        if not terms:
            raise ZeroDivisionError("inverse of zero in a Kummer extension")
        if len(terms) > 1:
            return self._inv_conjugates()
        parent = self.parent
        ((k, c),) = terms.items()
        if k == 0:
            return _kummer(parent, {0: c.inv()})
        return _kummer(parent, {parent.m - k: (c * parent.alpha).inv()})

    def _inv_conjugates(self) -> "KummerElem":
        """x^-1 = Q / N(x), Q a product of twists of x and of its partial norms, with N(x) = x Q in the base.

        One round per prime p of m, with multiplicity: y in F(xi^s) (at first
        y = x, s = 1) times its twists xi^s -> z^j xi^s, j = 1..p-1, is fixed
        by each of them, so it lies in F(xi^(sp)); a y already there skips
        the round.  After the last round s = m and y = N(x).
        """
        m = self.parent.m
        y, q, s = self, self.parent.one(), 1
        for p in _prime_factors(m):
            while m % (sp := s * p) == 0:
                if any(i % sp for i in y.terms):
                    c = y._twist(s, p, 1)
                    for j in range(2, p):
                        c = c * y._twist(s, p, j)
                    y = y * c
                    q = q * c
                    if any(i % sp for i in y.terms):
                        raise SelfCheckError("the norm of a Kummer element does not lie in the twists' fixed field")
                s = sp
        return q * y.base_value().inv()

    def _twist(self, s: int, p: int, j: int) -> "KummerElem":
        """The twist xi^s -> z^j xi^s of an element of F(xi^s), for z = w^(n/p), or -1 for p = 2,
        a primitive p-th root of unity."""
        parent = self.parent
        if p == 2:
            return _kummer(parent, {i: -c if i // s % 2 else c for i, c in self.terms.items()})
        w_pows, n = parent.cyclo.omega_powers, parent.cyclo.m
        coerce, step = parent.base.coerce, n // p * j
        return _kummer(parent, {i: c * coerce(w_pows[step * (i // s) % n]) for i, c in self.terms.items()})

    def derive(self) -> "KummerElem":
        """Leibniz-compatible derivation: xi^i picks up i * gen_rate."""
        parent = self.parent
        out = {}
        for i, c in self.terms.items():
            term = c.derive()
            if i:
                term = term + c * (parent.gen_rate * i)
            if not term.is_zero():
                out[i] = term
        return _kummer(parent, out)

    def __hash__(self):
        # an element of the base field equals its base value
        if self.is_base():
            return hash(self.base_value())
        return hash(("KummerElem", tuple(sorted(self.terms.items()))))


_new = object.__new__


def _kummer(parent: KummerField, terms: dict) -> KummerElem:
    """The trusted constructor: terms maps exponents in [0, m) to nonzero elements of the base;
    empty terms give the parent's interned zero."""
    if not terms:
        return parent._zero
    x = _new(KummerElem)
    x.parent = parent
    x.terms = terms
    return x
