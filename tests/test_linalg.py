"""Linear algebra over the tower fields: affine solving, and the determinant oracle behind the gauge tests."""

from itertools import combinations, permutations

import pytest

import diffsym.linalg
from diffsym.linalg import invert_matrix, kernel_basis, solve_affine
from diffsym.scalars import CycloField, KummerField, RatFuncField
from oracles import dense_rref, det_expansion


def det_permutations(matrix, ring):
    """Reference determinant: the sum over all n! permutations, each signed by its inversion count."""
    n = len(matrix)
    if n == 0:
        return ring.one()
    total = ring.zero()
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = ring.one()
        for i in range(n):
            term = term * matrix[i][perm[i]]
        total = total + term if sign > 0 else total - term
    return total


def _fields():
    cyclo = CycloField(3)
    k = RatFuncField(cyclo, "t")
    t = k.gen()
    xi_field = KummerField(k, t, 3, "xi")
    eta_field = KummerField(xi_field, t + k.one(), 3, "eta")
    return [cyclo, k, xi_field, eta_field]


def _entry(field, rng):
    """A small random element built from the field's own generators."""
    x = field.coerce(rng.randint(-3, 3))
    if hasattr(field, "gen"):
        x = x + field.gen() * rng.randint(-2, 2)
    else:
        x = x + field.omega() * rng.randint(-2, 2)
    return x


def _matrices(field, n, rng):
    dense = [[_entry(field, rng) for _ in range(n)] for _ in range(n)]
    sparse = [[_entry(field, rng) if rng.random() < 0.35 else field.zero() for _ in range(n)] for _ in range(n)]
    diagonal = [[_entry(field, rng) if i == j else field.zero() for j in range(n)] for i in range(n)]
    # the last row is twice the first (n = 1: the zero matrix)
    singular = [[field.zero()]] if n == 1 else dense[:-1] + [[a + a for a in dense[0]]]
    return {"dense": dense, "sparse": sparse, "diagonal": diagonal, "singular": singular}


def test_empty_determinant_is_one():
    for field in _fields():
        assert det_expansion([], field) == field.one()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_depth_first_expansion_matches_permutation_sum(n, rng):
    for field in _fields():
        for kind, matrix in _matrices(field, n, rng).items():
            det = det_expansion(matrix, field)
            assert det == det_permutations(matrix, field), (field, kind)
            if kind == "singular":
                assert det.is_zero()


def test_diagonal_determinant_is_the_product_of_the_diagonal():
    field = RatFuncField(CycloField(7), "t")
    t = field.gen()
    diag = [t + i for i in range(7)]
    matrix = [[diag[i] if i == j else field.zero() for j in range(7)] for i in range(7)]
    expected = field.one()
    for x in diag:
        expected = expected * x
    assert det_expansion(matrix, field) == expected


def test_permutation_matrix_sign():
    field = CycloField(1)
    one, zero = field.one(), field.zero()
    for perm in permutations(range(4)):
        matrix = [[one if perm[i] == j else zero for j in range(4)] for i in range(4)]
        assert det_expansion(matrix, field) == det_permutations(matrix, field)


def _rank(matrix, field):
    """Rank as the largest size of a nonzero minor, independent of the elimination."""
    rows, cols = len(matrix), len(matrix[0])
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                if not det_expansion([[matrix[r][c] for c in cs] for r in rs], field).is_zero():
                    return k
    return 0


def _apply(matrix, x, field):
    return [sum((a * b for a, b in zip(row, x)), field.zero()) for row in matrix]


@pytest.mark.parametrize("field", [CycloField(5), RatFuncField(CycloField(5), "t")], ids=["Q(w5)", "Q(w5)(t)"])
def test_solve_affine_on_random_systems(field, rng):
    for _ in range(12):
        nrows, ncols = rng.randint(2, 4), rng.randint(2, 5)
        matrix = [[_entry(field, rng) for _ in range(ncols)] for _ in range(nrows)]
        # half the systems get a dependent last row, so some have a kernel and some no solution
        if rng.random() < 0.5:
            matrix[-1] = [a + a for a in matrix[0]]
        x0 = [_entry(field, rng) for _ in range(ncols)]
        rhs = _apply(matrix, x0, field)
        inconsistent = matrix[-1] == [a + a for a in matrix[0]] and rng.random() < 0.5
        if inconsistent:
            rhs[-1] = rhs[-1] + field.one()
        particular = solve_affine(matrix, rhs, field)
        if inconsistent:
            assert particular is None
        else:
            assert _apply(matrix, particular, field) == rhs
        kernel = kernel_basis(matrix, field)
        for vec in kernel:
            assert all(x.is_zero() for x in _apply(matrix, vec, field))
        assert len(kernel) == ncols - _rank(matrix, field)


def test_solve_affine_runs_one_elimination(monkeypatch):
    field = CycloField(5)
    w = field.omega()
    matrix = [[field.one(), w, w + field.one()], [w, w * w, w * w + w]]
    calls = []
    rref = diffsym.linalg._rref

    def counting(*args):
        calls.append(args)
        return rref(*args)

    monkeypatch.setattr(diffsym.linalg, "_rref", counting)
    for rhs in ([field.one(), w], [field.one(), field.one()]):
        calls.clear()
        solve_affine(matrix, rhs, field)
        assert len(calls) == 1


def _eliminations(matrix, rhs, field):
    """(kernel basis, one solution of M x = rhs, inverse or None when singular)."""
    try:
        inverse = invert_matrix(matrix, field)
    except ZeroDivisionError:
        inverse = None
    return kernel_basis(matrix, field), solve_affine(matrix, rhs, field), inverse


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eliminations_on_the_pivot_support_agree_with_the_dense_row_update(n, rng, monkeypatch):
    """kernel_basis, solve_affine and invert_matrix give the same elements as whole-row updates."""
    inverted = 0
    for field in _fields()[:3]:
        for kind, matrix in _matrices(field, n, rng).items():
            if kind == "dense":
                continue
            rhs = [_entry(field, rng) for _ in range(n)]
            got = _eliminations(matrix, rhs, field)
            with monkeypatch.context() as patch:
                patch.setattr(diffsym.linalg, "_rref", dense_rref)
                want = _eliminations(matrix, rhs, field)
            assert got == want, (field, kind)
            inverted += got[2] is not None
    assert inverted > 0
