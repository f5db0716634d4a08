"""The symbol algebra A = (alpha, beta)_{k,w}: u^m = alpha, v^m = beta, vu = w uv.

Elements are sums of terms c u^i v^j over a pluggable coefficient field, so
the same type serves A and A tensor E for any extension E of k.  Every element
is made by the algebra's trusted ``_make``, which returns the algebra's
interned zero for empty terms.  The one dense entry point is
``SymbolAlgebra.from_grid``: it checks the shape of an m x m grid, coerces
each entry once and keeps the nonzero ones.
"""

from __future__ import annotations

from functools import cached_property
from weakref import ref

from .errors import SelfCheckError
from .linalg import kernel_basis, solve_affine
from .scalars import Poly
from .scalars.elem import SparseElem, unset_ref


class AlgebraMismatchError(ValueError):
    """Operands belong to different parent algebras."""


class SymbolAlgebra:
    """(alpha, beta)_{k,w} over ``field``, the container of its ``SymbolElem``s.

    An element holds its ``algebra`` strongly; the algebra holds no strong
    reference to an element of itself (the ownership rule of
    ``scalars/elem.py``).  Its interned zero is held weakly, so "interned"
    means one live object, and an algebra built per case is freed by
    reference counting.
    """

    def __init__(self, field, alpha, beta, m: int):
        if m < 2:
            raise ValueError(f"a symbol algebra needs degree m >= 2, got m = {m}")
        alpha = field.coerce(alpha)
        beta = field.coerce(beta)
        if alpha.is_zero() or beta.is_zero():
            raise ValueError("alpha and beta must be nonzero")
        if field.cyclo.m != m:
            raise ValueError("coefficient field must contain a primitive m-th root of unity")
        self.field = field
        self.alpha = alpha
        self.beta = beta
        self.m = m
        self.omega = field.cyclo.omega()
        self._check_primitive_root()
        # the field's omega powers as coefficient-field elements
        self._omega_pow = [field.coerce(w) for w in field.cyclo.omega_powers]
        self._zero_ref = unset_ref
        # the algebra that extend built this one from, whose elements coerce_elem takes unchecked
        self._source = None

    # -- constants of the algebra, computed on first use ---------------------
    #
    # Not in __init__: many algebras are built and never decomposed, and the
    # two groups are apart so that reading the rates costs none of the norms.

    @cached_property
    def standard_rates(self):
        """(delta(alpha)/(m alpha), delta(beta)/(m beta)): d_s(u) = ru u and d_s(v) = rv v.

        A constant radicand, or the zero derivation, gives a zero rate with no inverse.
        """
        rates = []
        for x in (self.alpha, self.beta):
            dx = x.derive()
            rates.append(dx if dx.is_zero() else dx / (x * self.m))
        return tuple(rates)

    @cached_property
    def inverse_gaps(self):
        """(g, alpha^-1) with g[j] = (1 - w^j)^-1 for j = 1..m-1 (g[0] is None).

        Each g[j] is the Q(w) field's ``inverse_gaps[j]`` coerced into the field.
        """
        coerce = self.field.coerce
        gaps = [None] + [coerce(g) for g in self.field.cyclo.inverse_gaps[1:]]
        return gaps, self.alpha.inv()

    def _check_primitive_root(self):
        w_pows = self.field.cyclo.omega_powers
        one = w_pows[0]
        if not w_pows[-1] * self.omega == one:
            raise ValueError("omega^m != 1")
        for d in range(1, self.m):
            if self.m % d == 0 and w_pows[d] == one:
                raise ValueError("omega is not a primitive m-th root of unity")

    # -- element constructors --------------------------------------------

    def _make(self, terms: dict) -> "SymbolElem":
        """The trusted constructor: terms maps (i, j) in [0, m)^2 to nonzero field elements; {} gives the zero."""
        if not terms:
            return self.zero_elem()
        x = object.__new__(SymbolElem)
        x.algebra = self
        x.terms = terms
        return x

    def zero_elem(self) -> "SymbolElem":
        """The interned zero, held weakly: built on first use and again only after every reference to it has gone."""
        zero = self._zero_ref()
        if zero is None:
            # built directly: _make returns this zero for empty terms
            zero = object.__new__(SymbolElem)
            zero.algebra, zero.terms = self, {}
            self._zero_ref = ref(zero)
        return zero

    def one(self) -> "SymbolElem":
        return self.monomial(0, 0, self.field.one())

    def scalar(self, c) -> "SymbolElem":
        return self.monomial(0, 0, self.field.coerce(c))

    def u(self, i: int = 1) -> "SymbolElem":
        """u^i = alpha^(i // m) u^(i mod m), for any integer i."""
        return self.monomial(i % self.m, 0, self.alpha ** (i // self.m))

    def v(self, j: int = 1) -> "SymbolElem":
        """v^j = beta^(j // m) v^(j mod m), for any integer j."""
        return self.monomial(0, j % self.m, self.beta ** (j // self.m))

    def monomial(self, i: int, j: int, c) -> "SymbolElem":
        if not (0 <= i < self.m and 0 <= j < self.m):
            raise ValueError("exponents out of range")
        c = self.field.coerce(c)
        return self._make({} if c.is_zero() else {(i, j): c})

    def from_grid(self, grid) -> "SymbolElem":
        """sum grid[i][j] u^i v^j for a dense m x m grid: each entry coerced once, the zeros dropped."""
        m = self.m
        if len(grid) != m or any(len(row) != m for row in grid):
            raise ValueError("grid has the wrong shape")
        coerce = self.field.coerce
        terms = {}
        for i, row in enumerate(grid):
            for j, c in enumerate(row):
                c = coerce(c)
                if not c.is_zero():
                    terms[i, j] = c
        return self._make(terms)

    def basis(self):
        return [self.monomial(i, j, self.field.one()) for i in range(self.m) for j in range(self.m)]

    def extend(self, new_field) -> "SymbolAlgebra":
        """The same relations with scalars in an extension of the base field."""
        ext = SymbolAlgebra(new_field, new_field.coerce(self.alpha), new_field.coerce(self.beta), self.m)
        ext._source = self
        return ext

    def coerce_elem(self, x: "SymbolElem") -> "SymbolElem":
        """x itself when it belongs to this algebra, else each of its terms coerced once.

        AlgebraMismatchError when x's algebra has another m, alpha or beta, compared in the larger
        field; the algebra that ``extend`` built this one from is taken without a comparison.
        """
        src = x.algebra
        if src is self:
            return x
        if src is not self._source and not (src.m == self.m and src.alpha == self.alpha and src.beta == self.beta):
            raise AlgebraMismatchError("an element of a symbol algebra with other relations")
        coerce = self.field.coerce
        return self._make({key: coerce(c) for key, c in x.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, SymbolAlgebra)
            and other.m == self.m
            and other.field == self.field
            and other.alpha == self.alpha
            and other.beta == self.beta
        )

    def __repr__(self):
        return f"({self.alpha!r},{self.beta!r})_{{k,w_{self.m}}}"


class SymbolElem(SparseElem):
    """Element sum c_ij u^i v^j (0 <= i, j < m), stored sparsely as ``terms``, {(i, j): c_ij}.

    The c_ij are nonzero elements of the coefficient field (see
    ``SparseElem``).  Every element is made by the algebra's trusted
    ``_make``: from ``monomial``, ``from_grid`` and arithmetic.
    """

    __slots__ = ("algebra", "terms", "__weakref__")

    def _with(self, terms: dict) -> "SymbolElem":
        return self.algebra._make(terms)

    @property
    def grid(self) -> tuple:
        """The dense m x m grid, grid[i][j] multiplying u^i v^j, zeros included; a read-only view."""
        m, terms = self.algebra.m, self.terms
        zero = self.algebra.field.zero()
        return tuple(tuple(terms.get((i, j), zero) for j in range(m)) for i in range(m))

    def is_scalar(self) -> bool:
        return self.terms.keys() <= {(0, 0)}

    def scalar_value(self):
        if not self.is_scalar():
            raise ValueError("element is not a scalar")
        return self.terms.get((0, 0), self.algebra.field.zero())

    def _coerce_other(self, other) -> "SymbolElem":
        if not isinstance(other, SymbolElem):
            raise TypeError(f"cannot combine a symbol algebra element with {type(other).__name__}")
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise AlgebraMismatchError("elements of different symbol algebras")
        return other

    def _one(self) -> "SymbolElem":
        return self.algebra.one()

    def __add__(self, other):
        return self._plus(self._coerce_other(other))

    def scale(self, c) -> "SymbolElem":
        c = self.algebra.field.coerce(c)
        if c.is_zero():
            return self._with({})
        return self._with({key: a * c for key, a in self.terms.items()})

    def __mul__(self, other):
        """Term by term: v^j u^r = w^(jr) u^r v^j, and u^m = alpha and v^m = beta
        bring the exponents of a product below m."""
        if not isinstance(other, SymbolElem):
            return self.scale(other)
        self._coerce_other(other)
        alg = self.algebra
        m = alg.m
        w, alpha, beta = alg._omega_pow, alg.alpha, alg.beta
        right = other.terms.items()
        out = {}
        for (i, j), a in self.terms.items():
            for (r, s), b in right:
                c = a * b
                # w^0 = 1 needs no product
                jr = j * r % m
                if jr:
                    c = c * w[jr]
                ii, jj = i + r, j + s
                if ii >= m:
                    ii -= m
                    c = c * alpha
                if jj >= m:
                    jj -= m
                    c = c * beta
                prev = out.get((ii, jj))
                out[ii, jj] = c if prev is None else prev + c
        return alg._make({key: c for key, c in out.items() if not c.is_zero()})

    def __rmul__(self, other):
        return self.scale(other)

    def __truediv__(self, other):
        if isinstance(other, SymbolElem):
            return self * other.inv()
        field = self.algebra.field
        return self.scale(field.one() / field.coerce(other))

    def inv(self):
        """A scalar's inverse in the field, else the inverse from the minimal polynomial.

        ZeroDivisionError for zero or a zero divisor.
        """
        if self.is_scalar():
            return self._with({(0, 0): self.scalar_value().inv()})
        return inverse_via_minimal_polynomial(self)

    def trace(self):
        """m^2 times the u^0 v^0 coefficient."""
        return self.terms.get((0, 0), self.algebra.field.zero()) * (self.algebra.m**2)

    def to_vector(self):
        """The m^2 coefficients in row-major order, zeros included."""
        return [c for row in self.grid for c in row]

    def to_json(self):
        # parser imports this module at module level
        from .parser import scalar_to_str

        entries = [[i, j, scalar_to_str(self.terms[i, j])] for i, j in sorted(self.terms)]
        return {"m": self.algebra.m, "entries": entries}

    def __repr__(self):
        # parser imports this module at module level
        from .parser import symbol_to_str

        return symbol_to_str(self)


def _columns(elems) -> list:
    """The matrix whose columns are the coordinate vectors of elems."""
    return list(zip(*(x.to_vector() for x in elems)))


def _powers(a: SymbolElem) -> list:
    """[1, a, ..., a^m], which span k[a]: A has degree m, and a satisfies its
    reduced characteristic polynomial, of degree m."""
    powers = [a.algebra.one()]
    for _ in range(a.algebra.m):
        powers.append(powers[-1] * a)
    return powers


def twisted_centralizer(a: SymbolElem, c):
    """Basis of {x : xa = c ax} for a scalar c, via an exact m^2 x m^2 kernel computation."""
    alg, m = a.algebra, a.algebra.m
    # c is central, so c(ax) = (ca)x
    ca = a.scale(c)
    kernel = kernel_basis(_columns(b * a - ca * b for b in alg.basis()), alg.field)
    return [alg.from_grid([vec[i * m : (i + 1) * m] for i in range(m)]) for vec in kernel]


def centralizer(a: SymbolElem):
    """Basis of {x : xa = ax}."""
    return twisted_centralizer(a, a.algebra.field.one())


def _minimal_polynomial(powers: list) -> Poly:
    """The minimal polynomial of a from powers = [1, a, ..., a^m], by one kernel computation.

    The first free column is a^d, the first power in the span of the lower
    ones, and its kernel vector holds the coefficients of p, monic of degree d.
    """
    field = powers[0].algebra.field
    kernel = kernel_basis(_columns(powers), field)
    if not kernel:
        raise SelfCheckError("no linear dependence found below the degree bound")
    return Poly(field, kernel[0])


def minimal_polynomial(a: SymbolElem) -> Poly:
    """Monic least-degree p with p(a) = 0, via linear dependence of powers."""
    return _minimal_polynomial(_powers(a))


def in_generated_subfield(x: SymbolElem, gamma: SymbolElem) -> bool:
    """True iff x lies in k[gamma] = span{1, gamma, ..., gamma^m}."""
    return solve_affine(_columns(_powers(gamma)), x.to_vector(), x.algebra.field) is not None


def inverse_via_minimal_polynomial(gamma: SymbolElem) -> SymbolElem:
    """gamma^{-1} from the constant term of its minimal polynomial."""
    powers = _powers(gamma)
    p = _minimal_polynomial(powers)
    c0 = p.coeff(0)
    if c0.is_zero():
        raise ZeroDivisionError("element is a zero divisor")
    alg = gamma.algebra
    # gamma * (gamma^{d-1} + ... ) = -c0  =>  invert by the cofactor polynomial
    acc = alg.zero_elem()
    for i in range(1, p.degree + 1):
        acc = acc + powers[i - 1].scale(p.coeff(i))
    inv = acc.scale(-(alg.field.one() / c0))
    if not inv * gamma == alg.one():
        raise SelfCheckError("minimal-polynomial inverse failed verification")
    return inv
