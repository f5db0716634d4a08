"""Rational solutions of delta(x) + mu*x = g over Q(w)(t), mu a constant.

Pole orders of a solution are bounded by one less than those of g (the degree
argument behind the matrix-constants computation), so a candidate denominator
D comes straight out of the squarefree decomposition of den(g). For x = p/D,
L(p) = D p' + (mu D - D') p = g D^2 is triangular on Q(w)[t] (the polynomial
Risch equation, Bronstein, Symbolic Integration I, ch. 6): L(t^i) has degree at
most i + deg(mu D - D'), with leading coefficient mu lc(D), or (i - deg D) lc(D)
at mu = 0, so p is read off from the top degree down, with no linear system.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from ..errors import SelfCheckError
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
    rhs = g * field.from_poly(d_poly) ** 2
    if rhs.den.degree != 0:
        # a pole of g survives D^2: no rational solution (simple-pole obstruction)
        return OdeSolution(None, homogeneous)

    e = d_poly * mu - d_poly.derivative()
    p, r = Poly.zero(cyclo), rhs.num
    while not r.is_zero():
        i = r.degree - e.degree
        if i < 0:
            return OdeSolution(None, homogeneous)
        t_i = Poly.monomial(cyclo, i)
        img = t_i.derivative() * d_poly + t_i * e
        if img.degree < r.degree:  # only mu = 0, i = deg D, as L(D) = 0: the kernel direction x = 1 stays out
            return OdeSolution(None, homogeneous)
        c = r.leading_coeff() / img.leading_coeff()
        p, r = p + t_i * c, r - img * c
    particular = field.from_poly(p, d_poly)
    if not particular.derive() + particular * field.coerce(mu) == g:
        raise SelfCheckError("ODE particular solution failed verification")
    return OdeSolution(particular, homogeneous)
