"""Matrix differential algebra (M_m(E), d_P), d_P(X) = delta^c(X) + XP - PX.

Includes the gauge verification delta^c(F) = PF with an exact certificate
for det F != 0, and the constants computation for the diagonal-plus-corner
matrices P = diag(lambda_0..lambda_{m-1}) + f E_{0,m-1} with distinct
constant lambdas.

An entry (XY)[r][s] of a product is one sum of the products X[r][k] Y[k][s]
over the k where both factors are nonzero, which X's field builds in one
pass (``sum_of_products``): Q(w) and Q(w)(t) fold them one product and one
sum at a time, and a field of sparse sums (a Kummer field, a differential
polynomial ring) gathers their terms in one dict and builds the entry once.
A constant factor there scales the other factor's terms, so P X over
k(xi)[x], P constant, takes no product of polynomials.  An entry lies in X's
field or the product raises TypeError: X over k times Y over an extension of
k, whose entries would leave k, is refused, as X + Y is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import SelfCheckError
from .linalg import kernel_basis
from .parser import scalar_to_str
from .scalars import PolyDiffField, RatFuncField, rational_ode_solve
from .scalars.elem import FieldElem


class DiffMatrix(FieldElem):
    """Square matrix over a differential field/ring descriptor.

    ``DiffMatrix(field, rows)`` checks the shape and coerces every entry;
    arithmetic, whose entries already lie in the field, builds through the
    trusted ``_matrix``.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.field = field
        self.rows = tuple(tuple(field.coerce(x) for x in r) for r in rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    @classmethod
    def zero(cls, field, n: int) -> "DiffMatrix":
        return _matrix(field, [[field.zero()] * n] * n)

    @classmethod
    def identity(cls, field, n: int) -> "DiffMatrix":
        z = field.zero()
        one = field.one()
        return _matrix(field, [[one if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, field, entries) -> "DiffMatrix":
        n = len(entries)
        z = field.zero()
        entries = [field.coerce(x) for x in entries]
        return _matrix(field, [[entries[i] if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, field, n: int, r: int, c: int, value=None) -> "DiffMatrix":
        rows = [[field.zero()] * n for _ in range(n)]
        rows[r][c] = field.one() if value is None else field.coerce(value)
        return _matrix(field, rows)

    def _coerce_other(self, other) -> "DiffMatrix":
        if not isinstance(other, DiffMatrix):
            raise TypeError(f"cannot combine a matrix with {type(other).__name__}")
        if other.size != self.size:
            raise ValueError("matrix size mismatch")
        return other

    def _one(self) -> "DiffMatrix":
        return DiffMatrix.identity(self.field, self.size)

    def __add__(self, other):
        self._coerce_other(other)
        return _matrix(self.field, [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return _matrix(self.field, [[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if not isinstance(other, DiffMatrix):
            return self.scale(other)
        self._coerce_other(other)
        # entry (r, s) is the field's one sum of products self[r][k] * other[k][s] over the k
        # where both are nonzero, each column of other taken on its support: a diagonal
        # factor costs m products
        field = self.field
        z = field.zero()
        cols = [[(k, b) for k, row in enumerate(other.rows) if not (b := row[s]).is_zero()] for s in range(self.size)]
        out = []
        for r in self.rows:
            nonzero = [None if a.is_zero() else a for a in r]
            row = []
            for col in cols:
                pairs = [(a, b) for k, b in col if (a := nonzero[k]) is not None]
                row.append(field.sum_of_products(pairs) if pairs else z)
            out.append(row)
        return _matrix(field, out)

    def scale(self, c) -> "DiffMatrix":
        c = self.field.coerce(c)
        return _matrix(self.field, [[a * c for a in r] for r in self.rows])

    __rmul__ = scale

    def inv(self):
        raise ValueError("negative powers of a matrix are not supported")

    def derive(self) -> "DiffMatrix":
        # a zero entry derives to itself
        return _matrix(self.field, [[a if a.is_zero() else a.derive() for a in r] for r in self.rows])

    def trace(self):
        acc = self.field.zero()
        for i in range(self.size):
            acc = acc + self.rows[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.rows for a in r)

    def __eq__(self, other):
        if not isinstance(other, DiffMatrix):
            return NotImplemented
        # every entry type keeps a canonical form, so == on entries decides equality
        return self.rows == other.rows

    def coerce_to(self, new_field) -> "DiffMatrix":
        return _matrix(new_field, [[new_field.coerce(a) for a in r] for r in self.rows])

    def to_json(self):
        entries = []
        for r in range(self.size):
            for c in range(self.size):
                if not self.rows[r][c].is_zero():
                    entries.append([r, c, scalar_to_str(self.rows[r][c])])
        return {"m": self.size, "entries": entries}

    def __repr__(self):
        return "[" + "; ".join(", ".join(repr(a) for a in r) for r in self.rows) + "]"


_new = object.__new__


def _matrix(field, rows) -> DiffMatrix:
    """The trusted constructor: rows is square and every entry lies in field."""
    x = _new(DiffMatrix)
    x.field = field
    x.rows = tuple(map(tuple, rows))
    return x


def apply_dP(p: DiffMatrix, x: DiffMatrix) -> DiffMatrix:
    """d_P(X) = delta^c(X) + XP - PX, one entry at a time:

        d_P(X)[r][s] = delta(X[r][s]) + X[r][s] (P[s][s] - P[r][r])
                       + sum_{k != s} X[r][k] P[k][s] - sum_{k != r} P[r][k] X[k][s].

    Zero factors are skipped, and the nonzero off-diagonal entries of each
    column and row of P are listed once. A diagonal P costs one product per
    nonzero off-diagonal entry of X; a dense P costs 2m - 1 per entry, where
    XP - PX takes 2m.
    """
    p._coerce_other(x)
    n = p.size
    prows, xrows = p.rows, x.rows
    diag = [prows[r][r] for r in range(n)]
    cols = [[(k, prows[k][s]) for k in range(n) if k != s and not prows[k][s].is_zero()] for s in range(n)]
    neg_rows = [[(k, -a) for k, a in enumerate(prows[r]) if k != r and not a.is_zero()] for r in range(n)]
    zero = x.field.zero()
    out = []
    for r in range(n):
        xr = xrows[r]
        row = []
        for s in range(n):
            acc = None
            a = xr[s]
            if not a.is_zero():
                acc = a.derive()
                if r != s:
                    gap = diag[s] - diag[r]
                    if not gap.is_zero():
                        acc = acc + a * gap
            for k, b in cols[s]:
                c = xr[k]
                if not c.is_zero():
                    acc = c * b if acc is None else acc + c * b
            for k, b in neg_rows[r]:
                c = xrows[k][s]
                if not c.is_zero():
                    acc = b * c if acc is None else acc + b * c
            row.append(zero if acc is None else acc)
        out.append(row)
    return _matrix(x.field, out)


# The specialisation points tried after the first: a fixed, seeded list with
# positive 16-bit coordinates, so the same F always gets the same verdict.
_EXTRA_POINTS = 4
_POINT_SEED = "diffsym.matdiff.det_certificate"


def _specialise(x, point, base):
    """The value of a Laurent polynomial at an integer point with no zero on a negative exponent.

    Each monomial is evaluated in integers, its numerator from the positive
    exponents and its denominator from the negative ones; a value of 0 adds
    nothing, a value of 1 adds its coefficient, and only another value is
    coerced into the base.
    """
    acc = base.zero()
    for key, c in x.terms.items():
        num = den = 1
        for i, e in key:
            if e > 0:
                num *= point[i] ** e
            else:
                den *= point[i] ** -e
        if num == den:
            acc = acc + c
        elif num:
            acc = acc + c * base.coerce(num if den == 1 else Fraction(num, den))
    return acc


def _specialisation_points(f: DiffMatrix):
    """Points for the indeterminates of F, skipping any that sends a negative exponent to 0.

    The first sends each indeterminate of a diagonal entry to 1 and the others
    to 0, which maps the generic X to I; the rest come from a fixed seed.
    """
    n = f.field.n
    on_diagonal = set()
    negative = set()
    for r, row in enumerate(f.rows):
        for c, x in enumerate(row):
            for key in x.terms:
                for i, e in key:
                    if e < 0:
                        negative.add(i)
                    if r == c:
                        on_diagonal.add(i)
    if not negative - on_diagonal:
        yield 0, [1 if i in on_diagonal else 0 for i in range(n)]
    rng = random.Random(_POINT_SEED)
    for index in range(1, _EXTRA_POINTS + 1):
        yield index, [rng.randrange(1, 1 << 16) for _ in range(n)]


def det_certificate(f: DiffMatrix):
    """Decide det F != 0 exactly: (verdict, method, index of the deciding point).

    * ``diagonal``: det F is the product of the diagonal entries, nonzero iff
      each of them is, since every ring here is a domain (a Kummer field is
      a field because its irreducibility is certified).
    * ``elimination``: F lies over a field, so det F != 0 iff its kernel is 0.
    * ``specialisation``: F lies over a polynomial ring. Evaluation at a point
      is a ring homomorphism, so F(point) with kernel 0 proves det F != 0;
      a diagonal F(point) is decided as above, without elimination.
      A singular F(point) proves nothing, so if every point gives one the
      verdict is None (undecided). A nonzero det F of degree d vanishes at a
      uniformly random point with 16-bit coordinates with probability at
      most d / 2^16 (Schwartz 1980; Zippel 1979).
    """
    rows = f.rows
    nonzero = _diagonal_det_nonzero(rows)
    if nonzero is not None:
        return nonzero, "diagonal", None
    if not isinstance(f.field, PolyDiffField):
        return not kernel_basis(rows, f.field), "elimination", None
    base = f.field.base
    for index, point in _specialisation_points(f):
        values = [[_specialise(x, point, base) for x in row] for row in rows]
        nonzero = _diagonal_det_nonzero(values)
        if nonzero is None:
            nonzero = not kernel_basis(values, base)
        if nonzero:
            return True, "specialisation", index
    return None, "specialisation", None


def _diagonal_det_nonzero(rows):
    """For a diagonal matrix over a domain, whether det != 0, i.e. no diagonal entry is 0; None if not diagonal."""
    n = len(rows)
    if any(not rows[r][c].is_zero() for r in range(n) for c in range(n) if r != c):
        return None
    return all(not rows[r][r].is_zero() for r in range(n))


@dataclass
class GaugeVerdict:
    ok: bool
    det_nonzero: bool | None
    det_method: str
    det_point: int | None
    failing_entry: tuple | None
    lhs: str | None
    rhs: str | None

    def to_json(self):
        return {
            "ok": self.ok,
            "det_nonzero": self.det_nonzero,
            "det_method": self.det_method,
            "det_point": self.det_point,
            "failing_entry": list(self.failing_entry) if self.failing_entry else None,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


def verify_gauge(p: DiffMatrix, f: DiffMatrix) -> GaugeVerdict:
    """Check delta^c(F) = PF exactly and certify det F != 0; undecided never passes."""
    p._coerce_other(f)
    lhs = f.derive()
    rhs = p * f
    failing = None
    for r in range(f.size):
        for c in range(f.size):
            if not lhs.rows[r][c] == rhs.rows[r][c]:
                failing = (r, c)
                break
        if failing:
            break
    det_nonzero, method, point = det_certificate(f)
    if failing is None:
        return GaugeVerdict(det_nonzero is True, det_nonzero, method, point, None, None, None)
    r, c = failing
    return GaugeVerdict(
        False, det_nonzero, method, point, failing, scalar_to_str(lhs.rows[r][c]), scalar_to_str(rhs.rows[r][c])
    )


def prop44_matrix(field: RatFuncField, lambdas, f) -> DiffMatrix:
    """diag(lambda_0..lambda_{m-1}) + f in the top-right corner."""
    lambdas = [field.cyclo.coerce(l) for l in lambdas]
    m = len(lambdas)
    for i in range(m):
        for j in range(i + 1, m):
            if lambdas[i] == lambdas[j]:
                raise ValueError("diagonal constants must be pairwise distinct")
    rows = [[field.zero()] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = field.coerce(lambdas[i])
    rows[0][m - 1] = rows[0][m - 1] + field.coerce(f)
    return DiffMatrix(field, rows)


def _prop44_shape(p: DiffMatrix):
    """Recover (lambdas, f) from a diagonal-plus-corner matrix, or reject."""
    m = p.size
    if m < 2:
        raise ValueError("need size at least 2")
    lambdas = []
    for i in range(m):
        d = p.rows[i][i]
        if not d.is_constant():
            raise ValueError("diagonal entries must be constants")
        lambdas.append(d.constant_value())
    for i in range(m):
        for j in range(m):
            if i != j and (i, j) != (0, m - 1) and not p.rows[i][j].is_zero():
                raise ValueError("constants computation supports only the diagonal-plus-corner shape")
    for i in range(m):
        for j in range(i + 1, m):
            if lambdas[i] == lambdas[j]:
                raise ValueError("diagonal constants must be pairwise distinct")
    return lambdas, p.rows[0][m - 1]


def prop44_constants(p: DiffMatrix):
    """Basis of the constants of d_P for the diagonal-plus-corner family.

    Entry-wise, d_P(X) = 0 forces every off-corner off-diagonal entry to
    vanish and every diagonal entry to be constant; the corner entry x and
    the outer diagonal constants are coupled by
    delta(x) + (lambda_{m-1} - lambda_0) x + f (x_00 - x_{m-1,m-1}) = 0.
    """
    field = p.field
    if not isinstance(field, RatFuncField) or field.is_zero_derivation:
        raise ValueError("constants computation needs the d/dt base field")
    lambdas, f = _prop44_shape(p)
    m = p.size
    basis = [DiffMatrix.unit(field, m, i, i) for i in range(1, m - 1)]
    gap = lambdas[m - 1] - lambdas[0]
    # x_00 = 1, x_{m-1,m-1} = 0 requires delta(x) + gap*x = -f
    # gap != 0 (distinct lambdas), so the ODE has no homogeneous solution besides 0
    sol = rational_ode_solve(gap, -f)
    if sol.has_solution:
        xp = sol.particular
        basis.append(DiffMatrix.unit(field, m, 0, 0) + DiffMatrix.unit(field, m, 0, m - 1, xp))
        basis.append(DiffMatrix.unit(field, m, m - 1, m - 1) + DiffMatrix.unit(field, m, 0, m - 1, -xp))
    else:
        basis.append(DiffMatrix.unit(field, m, 0, 0) + DiffMatrix.unit(field, m, m - 1, m - 1))
    for x in basis:
        if not apply_dP(p, x).is_zero():
            raise SelfCheckError("constants basis element failed d_P(X) = 0")
    return basis
