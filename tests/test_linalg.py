"""Linear algebra over the tower fields: the determinant expansion."""

from itertools import permutations

import pytest

from diffsym.linalg import det_expansion
from diffsym.scalars import CycloField, KummerField, RatFuncField


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
