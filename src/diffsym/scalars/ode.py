"""Rational solutions of delta(x) + mu*x = g over Q(w)(t), mu a constant.

Pole orders of a solution are bounded by one less than those of g (the degree
argument behind the matrix-constants computation), so a candidate denominator
comes straight out of the squarefree decomposition of den(g); the rest is a
finite linear system over Q(w).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from ..errors import SelfCheckError
from ..linalg import solve_affine
from .cyclo import CycloElem
from .polys import Poly, squarefree_decompose
from .ratfunc import RatFunc, RatFuncField


@dataclass
class OdeSolution:
    """Affine solution set: particular (may be None) plus homogeneous basis."""

    particular: RatFunc | None
    homogeneous: list = dc_field(default_factory=list)

    @property
    def has_solution(self) -> bool:
        return self.particular is not None


def _homogeneous_basis(field: RatFuncField, mu: CycloElem):
    """Kernel of x -> delta(x) + mu x on k: constants for mu = 0, else {0}.

    No nonzero rational x has x'/x = -mu != 0: x'/x is a sum of n/(t - a)."""
    if mu.is_zero():
        return [field.one()]
    return []


def rational_ode_solve(mu, g: RatFunc) -> OdeSolution:
    """All rational solutions of delta(x) + mu*x = g, mu in Q(w)."""
    field = g.parent
    if field.is_zero_derivation:
        raise ValueError("ODE solving needs the d/dt derivation")
    mu = field.cyclo.coerce(mu)
    homogeneous = _homogeneous_basis(field, mu)
    if g.is_zero():
        return OdeSolution(field.zero(), homogeneous)

    cyclo = field.cyclo
    d_poly = Poly.one(cyclo)
    for q, j in squarefree_decompose(g.den):
        if j > 1:
            d_poly = d_poly * q ** (j - 1)
    bound = d_poly.degree + max(g.degree(), 0) + 1

    rhs = g * field.from_poly(d_poly) ** 2
    if rhs.den.degree != 0:
        # a pole of g survives D^2: no rational solution (simple-pole obstruction)
        return OdeSolution(None, homogeneous)

    d_deriv = d_poly.derivative()
    n_rows = bound + d_poly.degree + 2
    columns = []
    for i in range(bound + 1):
        basis = Poly.monomial(cyclo, i)
        img = basis.derivative() * d_poly - basis * d_deriv + basis * d_poly * mu
        columns.append([img.coeff(r) for r in range(n_rows)])
    matrix = [[columns[c][r] for c in range(bound + 1)] for r in range(n_rows)]
    target = [rhs.num.coeff(r) for r in range(n_rows)]

    particular_vec = solve_affine(matrix, target, cyclo)
    if particular_vec is None:
        return OdeSolution(None, homogeneous)
    particular = field.from_poly(Poly(cyclo, particular_vec), d_poly)
    if not particular.derive() + particular * field.coerce(mu) == g:
        raise SelfCheckError("ODE particular solution failed verification")
    return OdeSolution(particular, homogeneous)
