"""Exact linear algebra over any of the tower fields.

Plain Gaussian elimination with first-nonzero pivoting; matrix sizes stay
small (at most m^2 x m^2 at desk scale), so no fraction-free tricks needed.
A row update runs over the support of the pivot row, in place on the
private row lists that each caller builds.
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
        prow = rows[r] = [x * inv for x in rows[r]]
        # f * 0 changes nothing, so each row is updated in place on the pivot row's support
        support = [j for j, b in enumerate(prow) if not b.is_zero()]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and not f.is_zero():
                for j in support:
                    row[j] = row[j] - f * prow[j]
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

