"""The symbol algebra A = (alpha, beta)_{k,w}: u^m = alpha, v^m = beta, vu = w uv.

Elements are m x m coefficient grids over a pluggable coefficient field, so
the same type serves A and A tensor E for any extension E of k.
"""

from __future__ import annotations

from .linalg import kernel_basis, solve_affine
from .scalars import Poly
from .scalars.elem import FieldElem


class AlgebraMismatchError(ValueError):
    """Operands belong to different parent algebras."""


class SymbolAlgebra:
    def __init__(self, field, alpha, beta, m: int):
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
        # cache of omega powers as coefficient-field elements
        self._omega_pow = [field.coerce(self.omega**i) for i in range(m)]

    def _check_primitive_root(self):
        w = self.omega
        one = self.omega.parent.one()
        if not w**self.m == one:
            raise ValueError("omega^m != 1")
        for d in range(1, self.m):
            if self.m % d == 0 and w**d == one:
                raise ValueError("omega is not a primitive m-th root of unity")

    # -- element constructors --------------------------------------------

    def zero_elem(self) -> "SymbolElem":
        z = self.field.zero()
        return SymbolElem(self, [[z] * self.m for _ in range(self.m)])

    def one(self) -> "SymbolElem":
        return self.monomial(0, 0, self.field.one())

    def scalar(self, c) -> "SymbolElem":
        return self.monomial(0, 0, self.field.coerce(c))

    def u(self, i: int = 1) -> "SymbolElem":
        return self.monomial(i % self.m, 0, self.field.one()) * self._wrap_power(self.alpha, i)

    def v(self, j: int = 1) -> "SymbolElem":
        return self.monomial(0, j % self.m, self.field.one()) * self._wrap_power(self.beta, j)

    def _wrap_power(self, radicand, e: int):
        return self.scalar(radicand ** (e // self.m)) if e >= self.m else self.one()

    def monomial(self, i: int, j: int, c) -> "SymbolElem":
        if not (0 <= i < self.m and 0 <= j < self.m):
            raise ValueError("exponents out of range")
        out = self.zero_elem().grid_copy()
        out[i][j] = self.field.coerce(c)
        return SymbolElem(self, out)

    def from_grid(self, grid) -> "SymbolElem":
        return SymbolElem(self, [[self.field.coerce(c) for c in row] for row in grid])

    def basis(self):
        return [self.monomial(i, j, self.field.one()) for i in range(self.m) for j in range(self.m)]

    def random_element(self, rng, entries: int = 3, coeff_range: int = 5, max_deg: int = 1) -> "SymbolElem":
        """Sparse random element with small integer-polynomial coefficients."""
        grid = self.zero_elem().grid_copy()
        for _ in range(entries):
            i = rng.randrange(self.m)
            j = rng.randrange(self.m)
            coeffs = [rng.randint(-coeff_range, coeff_range) for _ in range(max_deg + 1)]
            grid[i][j] = grid[i][j] + self._small_scalar(coeffs)
        return SymbolElem(self, grid)

    def _small_scalar(self, int_coeffs):
        from .scalars import RatFuncField

        f = self.field
        if isinstance(f, RatFuncField):
            return f.from_poly(Poly(f.cyclo, [f.cyclo.from_rational(c) for c in int_coeffs]))
        return f.coerce(int_coeffs[0])

    def extend(self, new_field) -> "SymbolAlgebra":
        """The same relations with scalars in an extension of the base field."""
        return SymbolAlgebra(new_field, new_field.coerce(self.alpha), new_field.coerce(self.beta), self.m)

    def coerce_elem(self, x: "SymbolElem") -> "SymbolElem":
        return self.from_grid([[self.field.coerce(c) for c in row] for row in x.grid])

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


class SymbolElem(FieldElem):
    """Coefficient grid: coeffs[i][j] multiplies u^i v^j."""

    __slots__ = ("algebra", "grid")

    def __init__(self, algebra: SymbolAlgebra, grid):
        if len(grid) != algebra.m or any(len(r) != algebra.m for r in grid):
            raise ValueError("grid has the wrong shape")
        self.algebra = algebra
        self.grid = tuple(tuple(row) for row in grid)

    def grid_copy(self):
        return [list(row) for row in self.grid]

    def coefficient(self, i: int, j: int):
        return self.grid[i][j]

    def is_zero(self) -> bool:
        return all(c.is_zero() for row in self.grid for c in row)

    def is_scalar(self) -> bool:
        return all(
            self.grid[i][j].is_zero() for i in range(self.algebra.m) for j in range(self.algebra.m) if i or j
        )

    def scalar_value(self):
        if not self.is_scalar():
            raise ValueError("element is not a scalar")
        return self.grid[0][0]

    def _coerce_other(self, other) -> "SymbolElem":
        if not isinstance(other, SymbolElem):
            raise TypeError(f"cannot combine a symbol algebra element with {type(other).__name__}")
        if other.algebra != self.algebra:
            raise AlgebraMismatchError("elements of different symbol algebras")
        return other

    def _one(self) -> "SymbolElem":
        return self.algebra.one()

    def _key(self):
        return self.grid

    def __add__(self, other):
        other = self._coerce_other(other)
        return SymbolElem(
            self.algebra,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.grid, other.grid)],
        )

    def __neg__(self):
        return SymbolElem(self.algebra, [[-c for c in row] for row in self.grid])

    def scale(self, c) -> "SymbolElem":
        c = self.algebra.field.coerce(c)
        return SymbolElem(self.algebra, [[a * c for a in row] for row in self.grid])

    def __mul__(self, other):
        if not isinstance(other, SymbolElem):
            return self.scale(other)
        self._coerce_other(other)
        alg = self.algebra
        m = alg.m
        out = [[alg.field.zero()] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                a = self.grid[i][j]
                if a.is_zero():
                    continue
                for r in range(m):
                    for s in range(m):
                        b = other.grid[r][s]
                        if b.is_zero():
                            continue
                        # v^j u^r = w^(jr) u^r v^j
                        c = a * b * alg._omega_pow[(j * r) % m]
                        ii, jj = i + r, j + s
                        if ii >= m:
                            ii -= m
                            c = c * alg.alpha
                        if jj >= m:
                            jj -= m
                            c = c * alg.beta
                        out[ii][jj] = out[ii][jj] + c
        return SymbolElem(alg, out)

    def __rmul__(self, other):
        return self.scale(other)

    def __truediv__(self, other):
        field = self.algebra.field
        if isinstance(other, SymbolElem):
            if other.is_scalar():
                return self.scale(field.one() / other.scalar_value())
            return self * inverse_via_minimal_polynomial(other)
        return self.scale(field.one() / field.coerce(other))

    def inv(self):
        raise ValueError("negative powers: use inverse_via_minimal_polynomial")

    def trace(self):
        """m^2 times the u^0 v^0 coefficient."""
        return self.grid[0][0] * (self.algebra.m**2)

    def is_trace_zero(self) -> bool:
        return self.grid[0][0].is_zero()

    def to_vector(self):
        return [c for row in self.grid for c in row]

    def to_json(self):
        from .parser import scalar_to_str

        entries = []
        for i in range(self.algebra.m):
            for j in range(self.algebra.m):
                if not self.grid[i][j].is_zero():
                    entries.append([i, j, scalar_to_str(self.grid[i][j])])
        return {"m": self.algebra.m, "entries": entries}

    def __repr__(self):
        from .parser import symbol_to_str

        return symbol_to_str(self)


def left_multiplication_matrix(a: SymbolElem):
    """Matrix of x -> a*x in the basis u^i v^j (brute-force oracle helper)."""
    alg = a.algebra
    cols = []
    for b in alg.basis():
        cols.append((a * b).to_vector())
    n = alg.m**2
    return [[cols[c][r] for c in range(n)] for r in range(n)]


def centralizer(a: SymbolElem):
    """Basis of {x : xa = ax} via an exact m^2 x m^2 kernel computation."""
    alg = a.algebra
    cols = []
    for b in alg.basis():
        cols.append((b * a - a * b).to_vector())
    n = alg.m**2
    matrix = [[cols[c][r] for c in range(n)] for r in range(n)]
    basis = kernel_basis(matrix, alg.field)
    out = []
    for vec in basis:
        grid = [[vec[i * alg.m + j] for j in range(alg.m)] for i in range(alg.m)]
        out.append(SymbolElem(alg, grid))
    return out


def minimal_polynomial(a: SymbolElem) -> Poly:
    """Monic least-degree p with p(a) = 0, via linear dependence of powers."""
    alg = a.algebra
    field = alg.field
    powers = [alg.one()]
    while True:
        vecs = [p.to_vector() for p in powers]
        target = (powers[-1] * a).to_vector()
        n = len(target)
        matrix = [[vecs[c][r] for c in range(len(vecs))] for r in range(n)]
        sol, _ = solve_affine(matrix, target, field)
        if sol is not None:
            # a^d = sum sol_i a^i  =>  p = z^d - sum sol_i z^i
            coeffs = [-c for c in sol] + [field.one()]
            return Poly(field, coeffs)
        powers.append(powers[-1] * a)
        if len(powers) > alg.m**2 + 1:
            raise AssertionError("no linear dependence found below the dimension bound")


def in_generated_subfield(x: SymbolElem, gamma: SymbolElem) -> bool:
    """True iff x lies in span{1, gamma, ..., gamma^(d-1)}, d = deg minpoly."""
    alg = x.algebra
    d = minimal_polynomial(gamma).degree
    powers = [alg.one()]
    for _ in range(d - 1):
        powers.append(powers[-1] * gamma)
    vecs = [p.to_vector() for p in powers]
    target = x.to_vector()
    n = len(target)
    matrix = [[vecs[c][r] for c in range(len(vecs))] for r in range(n)]
    sol, _ = solve_affine(matrix, target, alg.field)
    return sol is not None


def inverse_via_minimal_polynomial(gamma: SymbolElem) -> SymbolElem:
    """gamma^{-1} from the constant term of its minimal polynomial."""
    p = minimal_polynomial(gamma)
    c0 = p.coeff(0)
    if c0.is_zero():
        raise ZeroDivisionError("element is a zero divisor")
    alg = gamma.algebra
    # gamma * (gamma^{d-1} + ... ) = -c0  =>  invert by the cofactor polynomial
    acc = alg.zero_elem()
    power = alg.one()
    for i in range(1, p.degree + 1):
        acc = acc + power.scale(p.coeff(i))
        power = power * gamma
    inv = acc.scale(-(alg.field.one() / c0))
    if not inv * gamma == alg.one():
        raise AssertionError("minimal-polynomial inverse failed verification")
    return inv
