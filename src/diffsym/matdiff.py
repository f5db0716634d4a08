"""Matrix differential algebra (M_m(E), d_P), d_P(X) = delta^c(X) + XP - PX.

Includes the gauge verification delta^c(F) = PF with det F != 0, and the
constants computation for the diagonal-plus-corner matrices
P = diag(lambda_0..lambda_{m-1}) + f E_{0,m-1} with distinct constant lambdas.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import det_expansion
from .scalars import RatFunc, RatFuncField, rational_ode_solve
from .scalars.elem import FieldElem


class DiffMatrix(FieldElem):
    """Square matrix over a differential field/ring descriptor."""

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
        z = field.zero()
        return cls(field, [[z] * n for _ in range(n)])

    @classmethod
    def identity(cls, field, n: int) -> "DiffMatrix":
        z = field.zero()
        one = field.one()
        return cls(field, [[one if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, field, entries) -> "DiffMatrix":
        n = len(entries)
        z = field.zero()
        return cls(field, [[field.coerce(entries[i]) if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, field, n: int, r: int, c: int, value=None) -> "DiffMatrix":
        rows = [[field.zero()] * n for _ in range(n)]
        rows[r][c] = field.one() if value is None else field.coerce(value)
        return cls(field, rows)

    def entry(self, r: int, c: int):
        return self.rows[r][c]

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
        return DiffMatrix(self.field, [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return DiffMatrix(self.field, [[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if not isinstance(other, DiffMatrix):
            return self.scale(other)
        self._coerce_other(other)
        n = self.size
        z = self.field.zero()
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = z
                for l in range(n):
                    a = self.rows[i][l]
                    b = other.rows[l][j]
                    if a.is_zero() or b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return DiffMatrix(self.field, out)

    def scale(self, c) -> "DiffMatrix":
        c = self.field.coerce(c)
        return DiffMatrix(self.field, [[a * c for a in r] for r in self.rows])

    def inv(self):
        raise ValueError("negative powers of a matrix are not supported")

    def derive(self) -> "DiffMatrix":
        return DiffMatrix(self.field, [[a.derive() for a in r] for r in self.rows])

    def trace(self):
        acc = self.field.zero()
        for i in range(self.size):
            acc = acc + self.rows[i][i]
        return acc

    def det(self):
        return det_expansion(self.rows, self.field)

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.rows for a in r)

    def __eq__(self, other):
        if not isinstance(other, DiffMatrix):
            return NotImplemented
        return self.size == other.size and all(
            (a - b).is_zero() for r1, r2 in zip(self.rows, other.rows) for a, b in zip(r1, r2)
        )

    def coerce_to(self, new_field) -> "DiffMatrix":
        return DiffMatrix(new_field, [[new_field.coerce(a) for a in r] for r in self.rows])

    def to_json(self):
        from .parser import scalar_to_str

        entries = []
        for r in range(self.size):
            for c in range(self.size):
                if not self.rows[r][c].is_zero():
                    entries.append([r, c, scalar_to_str(self.rows[r][c])])
        return {"m": self.size, "entries": entries}

    def __repr__(self):
        return "[" + "; ".join(", ".join(repr(a) for a in r) for r in self.rows) + "]"


def apply_dP(p: DiffMatrix, x: DiffMatrix) -> DiffMatrix:
    """d_P(X) = delta^c(X) + XP - PX."""
    p._coerce_other(x)
    return x.derive() + x * p - p * x


@dataclass
class GaugeVerdict:
    ok: bool
    det_nonzero: bool
    failing_entry: tuple | None
    lhs: str | None
    rhs: str | None

    def to_json(self):
        return {
            "ok": self.ok,
            "det_nonzero": self.det_nonzero,
            "failing_entry": list(self.failing_entry) if self.failing_entry else None,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


def verify_gauge(p: DiffMatrix, f: DiffMatrix) -> GaugeVerdict:
    """Check delta^c(F) = PF exactly and det F != 0."""
    from .parser import scalar_to_str

    p._coerce_other(f)
    lhs = f.derive()
    rhs = p * f
    failing = None
    for r in range(f.size):
        for c in range(f.size):
            if not (lhs.rows[r][c] - rhs.rows[r][c]).is_zero():
                failing = (r, c)
                break
        if failing:
            break
    det_nonzero = not f.det().is_zero()
    if failing is None:
        return GaugeVerdict(det_nonzero, det_nonzero, None, None, None)
    r, c = failing
    return GaugeVerdict(False, det_nonzero, failing, scalar_to_str(lhs.rows[r][c]), scalar_to_str(rhs.rows[r][c]))


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
    sol = rational_ode_solve(gap, -f)
    if sol.has_solution:
        xp = sol.particular
        basis.append(DiffMatrix.unit(field, m, 0, 0) + DiffMatrix.unit(field, m, 0, m - 1, xp))
        basis.append(DiffMatrix.unit(field, m, m - 1, m - 1) + DiffMatrix.unit(field, m, 0, m - 1, -xp))
        for h in sol.homogeneous:
            basis.append(DiffMatrix.unit(field, m, 0, m - 1, h))
    else:
        basis.append(DiffMatrix.unit(field, m, 0, 0) + DiffMatrix.unit(field, m, m - 1, m - 1))
    for x in basis:
        if not apply_dP(p, x).is_zero():
            raise AssertionError("constants basis element failed d_P(X) = 0")
    return basis


@dataclass
class RefutationReport:
    applies: bool
    refuted: bool
    reason: str
    details: list

    def to_json(self):
        return {
            "applies": self.applies,
            "refuted": self.refuted,
            "reason": self.reason,
            "details": list(self.details),
        }


def no_cyclic_subfield_witness(p: DiffMatrix, x: DiffMatrix, nu: RatFunc) -> RefutationReport:
    """Run the contradiction chain showing k(X), X^m = nu, is not d_P-stable.

    A test harness over caller-supplied candidates, not a decision procedure
    over all cyclic subfields.
    """
    from .scalars import mth_power_up_to_constant

    field = p.field
    details = []
    try:
        lambdas, f = _prop44_shape(p)
    except ValueError as exc:
        return RefutationReport(False, False, f"hypothesis failure: {exc}", details)
    if f.is_zero():
        return RefutationReport(False, False, "hypothesis failure: corner entry f is zero", details)
    m = p.size
    nu = field.coerce(nu)
    power = mth_power_up_to_constant(nu, m)
    if power is not None:
        return RefutationReport(False, False, "precondition violation: nu is an m-th power up to constant", details)
    xm = x**m
    nu_identity = DiffMatrix.identity(field, m).scale(nu)
    if not xm == nu_identity:
        return RefutationReport(True, True, "candidate rejected: X^m != nu*I", details)
    mu = nu.derive() / (nu * m)
    residual = apply_dP(p, x) - x.scale(mu)
    if not residual.is_zero():
        for r in range(m):
            for c in range(m):
                if not residual.rows[r][c].is_zero():
                    details.append(f"d_P(X) != (delta(nu)/(m nu)) X at entry ({r},{c})")
                    break
        return RefutationReport(True, True, "d_P does not restrict to the derivation of k(X)", details)
    # stability holds, so the degree argument forces the off-diagonal to
    # vanish and the diagonal entries to be m-th roots of nu
    for r in range(m):
        for c in range(m):
            if r != c and (r, c) != (0, m - 1) and not x.rows[r][c].is_zero():
                details.append(f"degree argument violated at entry ({r},{c})")
                return RefutationReport(True, True, "stable candidate contradicts the degree argument", details)
    for r in range(m):
        if not x.rows[r][r] ** m == nu:
            details.append(f"diagonal entry ({r},{r}) is not an m-th root of nu")
            return RefutationReport(True, True, "stable candidate fails the diagonal power identity", details)
    details.append("diagonal entries exhibit nu as an m-th power in k, contradicting the precondition")
    return RefutationReport(True, True, "nu would be an m-th power", details)
