"""Seeded random inputs for the tests.

The draws and their order are part of every seeded test's contract: the same
rng state gives the same elements, derivations and case counts.
"""

from pathlib import Path
from types import SimpleNamespace

import diffsym.parser
import diffsym.symalg
from diffsym import inner_derivation, standard_derivation
from diffsym.scalars import CycloField, Poly, RatFuncField
from diffsym.symalg import SymbolElem


def random_element(algebra, rng, entries: int = 3, coeff_range: int = 5, max_deg: int = 1) -> SymbolElem:
    """Sparse random element with small integer-polynomial coefficients."""
    grid = [list(r) for r in algebra.zero_elem().grid]
    for _ in range(entries):
        i = rng.randrange(algebra.m)
        j = rng.randrange(algebra.m)
        coeffs = [rng.randint(-coeff_range, coeff_range) for _ in range(max_deg + 1)]
        grid[i][j] = grid[i][j] + _small_scalar(algebra, coeffs)
    return algebra.from_grid(grid)


def _small_scalar(algebra, int_coeffs):
    f = algebra.field
    if isinstance(f, RatFuncField):
        return f.from_poly(Poly(f.cyclo, [f.cyclo.from_rational(c) for c in int_coeffs]))
    return f.coerce(int_coeffs[0])


def random_trace_zero(algebra, rng, entries: int = 3) -> SymbolElem:
    theta = random_element(algebra, rng, entries=entries)
    grid = [list(r) for r in theta.grid]
    grid[0][0] = algebra.field.zero()
    theta = algebra.from_grid(grid)
    if theta.is_zero():
        theta = algebra.u()
    return theta


def random_valid_derivation(algebra, rng, entries: int = 3):
    """d_s plus a random inner part; always satisfies the validity conditions."""
    theta = random_trace_zero(algebra, rng, entries=entries)
    return standard_derivation(algebra) + inner_derivation(theta)


def sharing_radicands(field, m: int, rng):
    """(alpha, beta, nu) over field, built from overlapping blocks and often related by powers.

    The blocks t - r, t + r, t, t^2 - r^2 and t^2 + 1 share factors, so a joint
    coprime basis splits t^2 - r^2 against t - r and t + r.  beta, and nu, are
    each with probability 1/2 a constant times the first or (at m > 2) second power of an
    earlier radicand times the m-th power of a linear block, so that power
    witnesses occur.  Degrees stay small: the quotient oracles take up to m^2
    powers of them.
    """
    t = field.gen()
    r = rng.randint(1, 3)
    lines = [t - r, t + r, t]
    blocks = lines + [t * t - r * r, t * t + 1]

    def product():
        f = field.coerce(rng.choice([1, 2, -3, 5])) * field.omega() ** rng.randrange(m)
        for b in rng.sample(blocks, 2):
            f = f * b ** rng.choice([-1, 1, 2])
        return f

    def related(*earlier):
        f = field.coerce(rng.choice([1, -2, 3])) * rng.choice(earlier) ** rng.randint(1, min(m - 1, 2))
        return f * rng.choice(lines) ** (m * rng.choice([-1, 1]))

    alpha = product()
    beta = product() if rng.random() < 0.5 else related(alpha)
    nu = product() if rng.random() < 0.5 else related(alpha, beta)
    return alpha, beta, nu


def random_u_polynomial(algebra, rng):
    """A sum of 1-3 terms c u^(d j) with c a small nonzero integer, t added to the first.

    Half the draws take d = 1; the rest a random divisor d of m, so rho lies in
    k[u^d] and generates a subfield of degree at most m / d (a scalar at d = m).
    The terms stay few because the minimal-polynomial oracle's elimination
    swells with them at m = 7.
    """
    m = algebra.m
    d = 1 if rng.random() < 0.5 else rng.choice([d for d in range(1, m + 1) if m % d == 0])
    rho = algebra.zero_elem()
    for n, i in enumerate(rng.sample(range(0, m, d), min(rng.randint(1, 3), m // d))):
        c = algebra.field.coerce(rng.choice([-3, -2, -1, 1, 2, 3]))
        if n == 0:
            c = c + algebra.field.gen() * rng.randint(-1, 1)
        rho = rho + algebra.u(i).scale(c)
    return rho


def cli_queries_argv(monkeypatch, seed, rounds):
    """The argv of the cli-queries benchmark workload, from its seeded generator under perfbench/."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS

    workload = WORKLOADS["cli-queries"]
    ds = SimpleNamespace(field=lambda m: RatFuncField(CycloField(m), "t"), symalg=diffsym.symalg, parser=diffsym.parser)
    ctx = workload.setup(ds, seed)
    return [case.inputs["argv"] for r in range(rounds) for case in workload.cases(ctx, r)]
