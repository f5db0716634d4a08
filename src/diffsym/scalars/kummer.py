"""Kummer extensions E = F(xi), xi^m = alpha, with the induced derivation.

The unique derivation extending the base one satisfies
delta_E(xi) = delta(alpha)/(m*alpha) * xi; this is checked at construction
together with an irreducibility certificate for z^m - alpha: the step must
multiply the tower's degree over kbar(t), kbar the algebraic closure of Q(w),
by m, read off the radicands (a_i, n_i), a_i in Q(w)(t), that it records with
their valuation vectors on one coprime basis.
The rule is the identity m rate alpha = delta(alpha) in Q(w)(t), where alpha
lies, checked cross-multiplied on the numerators and denominators of the
three, m p r v = u q s, so it forms no canonical product and takes no gcd.

A product with an ``int`` or ``Fraction`` scales each coefficient and
coerces nothing, and two elements of one field compare their terms with no
coercion.

A non-monomial is inverted by conjugates (Lang, Algebra, ch. VI 8), one prime
p of m at a time: the twists xi^s -> z^j xi^s, z a primitive p-th root of
unity in Q(w), fix F(xi^(sp)), so the product of an element of F(xi^s) and
its p - 1 twists lies there.  z is w^(n/p) for n the cyclotomic level, or -1
for p = 2, so every odd prime of m must divide n.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import SelfCheckError
from .elem import Extension, SparseElem
from .powers import (
    ReducibleRadicandError,
    _prime_factors,
    certify_power_free_over_kummer,
    kummer_vahlen_certify,
    valuations,
)
from .ratfunc import RatFunc, RatFuncField


class KummerField(Extension):
    """F(xi) with xi^m = alpha; base F is Q(w)(t) or another Kummer field.

    The field records its tower's steps (a_i, n_i) as ``radicands``, a_i in
    Q(w)(t), bottom step first, their valuation basis and vectors (one
    vector per a_i, in the same order) as ``valuation_basis`` and
    ``valuation_vectors``, and the tower's ``geometric_degree`` over kbar(t).
    A step refines only its own radicand into the basis of the step below.
    """

    _constant_key = 0

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

    # -- construction checks -------------------------------------------

    def _certify_irreducible(self):
        a = _bottom_value(self.alpha)
        if type(a) is not RatFunc:
            raise ReducibleRadicandError("can only certify tower radicands that come from the bottom field")
        base = self.base
        if isinstance(base, RatFuncField):  # a radical over Q(w)(t) that falls short has a constant step
            lattice = valuations(a)
            self.radicands, self.geometric_degree = ((a, self.m),), kummer_vahlen_certify(a, self.m, lattice)
        else:
            lattice = valuations(a, lattice=(base.valuation_basis, base.valuation_vectors))
            self.radicands = (*base.radicands, (a, self.m))
            self.geometric_degree = certify_power_free_over_kummer(
                base.radicands, base.geometric_degree, a, self.m, lattice[1]
            )
        self.valuation_basis, self.valuation_vectors = lattice

    def _check_derivation_consistency(self):
        """delta(xi^m) = m xi^(m-1) delta_E(xi) = m rate xi^m must equal delta(alpha); with
        xi^m = alpha that is m rate alpha = delta(alpha), one identity in the base.

        alpha and delta(alpha) lie in Q(w)(t), so the identity needs a rate there too, and
        with rate = p/q, alpha = r/s and delta(alpha) = u/v it reads m p r v = u q s: two
        polynomial products a side and a scaling by m, with no canonical product and no gcd.
        """
        rate = _bottom_value(self.gen_rate)
        alpha = self.radicands[-1][0]
        d_alpha = alpha.derive()
        if type(rate) is not RatFunc or not (
            rate.num * alpha.num * d_alpha.den * self.m == d_alpha.num * rate.den * alpha.den
        ):
            raise SelfCheckError("Kummer derivation rule is inconsistent")

    # -- descriptor protocol ---------------------------------------------

    @property
    def is_zero_derivation(self) -> bool:
        return self.base.is_zero_derivation

    def gen(self) -> "KummerElem":
        return self._make({1: self._base_one})

    def _own_generators(self) -> dict:
        return {self.gen_name: self.gen()}

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


def _bottom_value(x):
    """x read down a tower while it lies in the field below: an element of Q(w)(t) when x lies there."""
    while type(x) is KummerElem and x.is_base():
        x = x.base_value()
    return x


class KummerElem(SparseElem):
    """Element sum c_i xi^i (0 <= i < m), stored sparsely as ``terms``, {i: c_i}.

    The c_i are nonzero elements of the base field (see ``SparseElem``), so a
    zero coefficient costs nothing anywhere in a tower.  Every element is made
    by the field's trusted ``_make``: from its generator, ``coerce`` and
    arithmetic.
    """

    __slots__ = ("parent", "terms", "__weakref__")

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
            if type(other) is int or type(other) is Fraction:
                return self._times_rational(other)
            try:
                other = parent.coerce(other)
            except TypeError:
                return NotImplemented
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
            return parent._make({i: a * c for i, a in x.items()})
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
        return parent._make({k: c for k, c in out.items() if not c.is_zero()})

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
            return parent._make({0: c.inv()})
        return parent._make({parent.m - k: (c * parent.alpha).inv()})

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
            return parent._make({i: -c if i // s % 2 else c for i, c in self.terms.items()})
        w_pows, n = parent.cyclo.omega_powers, parent.cyclo.m
        coerce, step = parent.base.coerce, n // p * j
        return parent._make({i: c * coerce(w_pows[step * (i // s) % n]) for i, c in self.terms.items()})

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
        return parent._make(out)

    __eq__ = SparseElem._parent_eq

    def __hash__(self):
        # an element of the base field equals its base value
        if self.is_base():
            return hash(self.base_value())
        return hash(("KummerElem", tuple(sorted(self.terms.items()))))
