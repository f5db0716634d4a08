"""Seeded input generator for the three benchmark workloads.

Every input is a pure function of (seed, round, position), so two runs with
the same seed see the same cases.  Algebra elements handed to the CLI are
formatted from ``SymbolElem.to_json()`` entries, whose coefficients come from
``scalar_to_str`` and parse back exactly.  ``repr`` is not used: the repr of
``2*u*v`` is ``(2)uv``, which the parser rejects with
``ParseError: trailing input 'uv'`` (see README.md, "Known defects").
"""

from __future__ import annotations

import random

ROOTS = range(-4, 5)
CONSTANTS = (1, 2, 3, 5, -1, -2, -3)


def rng_for(seed, *key) -> random.Random:
    """An independent stream for one (seed, key) pair."""
    return random.Random(":".join(str(k) for k in (seed,) + key))


def pattern_rng(*key) -> random.Random:
    """A stream that does not depend on the seed.

    It picks the sparsity pattern of a case from its place in the round, so
    every seed runs the same mix of patterns with different values, and the
    seed changes coefficients and roots but not the shape of the work.
    """
    return rng_for("patterns", *key)


def linear_product(field, roots, const):
    """const * prod (t - r) in the rational function field."""
    t = field.gen()
    f = field.coerce(const)
    for r in roots:
        f = f * (t - field.coerce(r))
    return f


def radicands(field, rng, deg_alpha: int, deg_beta: int):
    """alpha, beta as products of distinct linear factors with no shared root.

    Every root is simple and belongs to one radicand only, so z^m - alpha and
    the second Kummer step over k(xi) are certified irreducible by
    construction, at every m.
    """
    roots = rng.sample(ROOTS, deg_alpha + deg_beta)
    alpha = linear_product(field, roots[:deg_alpha], rng.choice(CONSTANTS))
    beta = linear_product(field, roots[deg_alpha:], rng.choice(CONSTANTS))
    return alpha, beta


def small_linear(field, rng):
    """a*t + b with small integers, never zero."""
    a = rng.choice((1, 2, -1, 3))
    b = rng.randint(-3, 3)
    return field.coerce(a) * field.gen() + field.coerce(b)


def trace_zero_theta(algebra, patterns, coeff_rng, entries: int = 3):
    """A trace-zero element with `entries` nonzero coefficients at distinct positions.

    The positions, which set most of a case's cost, come from `patterns`; the
    coefficients come from `coeff_rng`.
    """
    m = algebra.m
    slots = [(i, j) for i in range(m) for j in range(m) if (i, j) != (0, 0)]
    grid = [[algebra.field.zero()] * m for _ in range(m)]
    for i, j in patterns.sample(slots, min(entries, len(slots))):
        grid[i][j] = small_linear(algebra.field, coeff_rng)
    return algebra.from_grid(grid)


def _monomial(i: int, j: int) -> str:
    parts = []
    if i:
        parts.append("u" if i == 1 else f"u^{i}")
    if j:
        parts.append("v" if j == 1 else f"v^{j}")
    return "*".join(parts)


def symbol_to_str(x) -> str:
    """An algebra element in the CLI grammar, built from its to_json() entries."""
    terms = []
    for i, j, coeff in x.to_json()["entries"]:
        mono = _monomial(i, j)
        terms.append(f"({coeff})*{mono}" if mono else f"({coeff})")
    return " + ".join(terms) if terms else "0"
