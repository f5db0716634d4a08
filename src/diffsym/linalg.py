"""Exact linear algebra over any of the tower fields.

Plain Gaussian elimination with first-nonzero pivoting; matrix sizes stay
small (at most m^2 x m^2 at desk scale), so no fraction-free tricks needed.
"""

from __future__ import annotations


def _rref(rows, field, width):
    """Reduced row echelon form in place; returns the list of pivot columns."""
    pivots = []
    r = 0
    for c in range(width):
        pivot = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.one() / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _kernel_from_rref(rows, pivots, field, ncols):
    """Right kernel basis read off a reduced matrix, one vector per free column."""
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def kernel_basis(matrix, field):
    """Basis of the right kernel of the matrix (rows x cols of field elements)."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows = [list(r) for r in matrix]
    return _kernel_from_rref(rows, _rref(rows, field, ncols), field, ncols)


def solve_affine(matrix, rhs, field):
    """One solution of M x = b, or None when the system is inconsistent."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    pivots = _rref(rows, field, ncols)
    # inconsistent iff a row is (0 ... 0 | nonzero)
    for row in rows:
        if all(x.is_zero() for x in row[:-1]) and not row[-1].is_zero():
            return None
    particular = [field.zero()] * ncols
    for r, pc in enumerate(pivots):
        particular[pc] = rows[r][-1]
    return particular


def invert_matrix(matrix, field):
    """Inverse of a square matrix; raises ZeroDivisionError when singular."""
    n = len(matrix)
    rows = [list(r) + [field.one() if i == j else field.zero() for j in range(n)] for i, r in enumerate(matrix)]
    pivots = _rref(rows, field, n)
    if len(pivots) != n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in rows]

