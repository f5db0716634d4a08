"""Seeded random inputs for the tests.

The draws and their order are part of every seeded test's contract: the same
rng state gives the same elements, derivations and case counts.
"""

from diffsym import inner_derivation, standard_derivation
from diffsym.scalars import Poly, RatFuncField
from diffsym.symalg import SymbolElem


def random_element(algebra, rng, entries: int = 3, coeff_range: int = 5, max_deg: int = 1) -> SymbolElem:
    """Sparse random element with small integer-polynomial coefficients."""
    grid = [list(r) for r in algebra.zero_elem().grid]
    for _ in range(entries):
        i = rng.randrange(algebra.m)
        j = rng.randrange(algebra.m)
        coeffs = [rng.randint(-coeff_range, coeff_range) for _ in range(max_deg + 1)]
        grid[i][j] = grid[i][j] + _small_scalar(algebra, coeffs)
    return SymbolElem(algebra, grid)


def _small_scalar(algebra, int_coeffs):
    f = algebra.field
    if isinstance(f, RatFuncField):
        return f.from_poly(Poly(f.cyclo, [f.cyclo.from_rational(c) for c in int_coeffs]))
    return f.coerce(int_coeffs[0])


def random_trace_zero(algebra, rng, entries: int = 3) -> SymbolElem:
    theta = random_element(algebra, rng, entries=entries)
    grid = [list(r) for r in theta.grid]
    grid[0][0] = algebra.field.zero()
    theta = SymbolElem(algebra, grid)
    if theta.is_zero():
        theta = algebra.u()
    return theta


def random_valid_derivation(algebra, rng, entries: int = 3):
    """d_s plus a random inner part; always satisfies the validity conditions."""
    theta = random_trace_zero(algebra, rng, entries=entries)
    return standard_derivation(algebra) + inner_derivation(theta)
