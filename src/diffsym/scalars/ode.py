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
    """Kernel of x -> delta(x) + mu x on k: {0} for mu != 0, constants for mu = 0."""
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
    den_candidate = Poly.one(cyclo)
    for q, j in squarefree_decompose(g.den):
        if j > 1:
            den_candidate = den_candidate * q ** (j - 1)
    rel_deg = g.degree() if g.degree() is not None else 0
    bound = den_candidate.degree + max(rel_deg, 0) + 1

    rhs_rf = g * field.from_poly(den_candidate) ** 2
    if rhs_rf.den.degree != 0:
        # a pole of g survives D^2: no rational solution (simple-pole obstruction)
        return OdeSolution(None, homogeneous)
    rhs_poly = rhs_rf.num

    d_poly = den_candidate
    d_deriv = d_poly.derivative()
    n_rows = bound + d_poly.degree + 2

    columns = []
    for i in range(bound + 1):
        basis = Poly(cyclo, [cyclo.zero()] * i + [cyclo.one()])
        img = basis.derivative() * d_poly - basis * d_deriv + basis * d_poly * mu
        columns.append([img.coeff(r) for r in range(n_rows)])
    matrix = [[columns[c][r] for c in range(bound + 1)] for r in range(n_rows)]
    target = [rhs_poly.coeff(r) for r in range(n_rows)]

    particular_vec, kernel = solve_affine(matrix, target, cyclo)

    def to_ratfunc(vec):
        num = Poly(cyclo, vec)
        return field.from_poly(num, d_poly)

    particular = None
    if particular_vec is not None:
        particular = to_ratfunc(particular_vec)
        if not particular.derive() + particular * field.coerce(mu) == g:
            raise SelfCheckError("ODE particular solution failed verification")

    hom = list(homogeneous)
    for vec in kernel:
        x = to_ratfunc(vec)
        if x.is_zero():
            continue
        check = x.derive() + x * field.coerce(mu)
        if not check.is_zero():
            raise SelfCheckError("ODE homogeneous solution failed verification")
        if not any((x - h).is_zero() or _proportional(x, h) for h in hom):
            hom.append(x)
    return OdeSolution(particular, hom)


def _proportional(a: RatFunc, b: RatFunc) -> bool:
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    q = a / b
    return q.is_constant()
