"""Derivations on the symbol algebra extending the base derivation.

A derivation d is determined by its images d(u), d(v) together with the base
derivation on coefficients.  Validity is characterized by two coefficient
conditions on d(u), d(v) plus four bilinear relations coming from d(vu) =
d(w uv); every valid d splits uniquely as d = d_s + inner(theta) with theta
trace-zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .parser import scalar_to_str
from .scalars import mth_power_up_to_constant
from .symalg import SymbolAlgebra, SymbolElem, _symbol, centralizer, in_generated_subfield


@dataclass
class DerivationVerdict:
    ok: bool
    failing: list = dc_field(default_factory=list)

    def to_json(self):
        # "diagnostics" stays in the report schema; validate has none to give
        return {"ok": self.ok, "failing": list(self.failing), "diagnostics": []}


class Derivation:
    """Additive map on A given by images of u and v, extended by Leibniz.

    includes_base controls whether coefficients are differentiated; inner
    derivations are k-linear and set it to False.
    """

    def __init__(self, algebra: SymbolAlgebra, du: SymbolElem, dv: SymbolElem, includes_base: bool = True):
        self.algebra = algebra
        self.du = algebra.coerce_elem(du)
        self.dv = algebra.coerce_elem(dv)
        self.includes_base = includes_base
        self._images = None

    def _basis_images(self):
        if self._images is not None:
            return self._images
        alg = self.algebra
        m = alg.m
        u1 = alg.u()
        v1 = alg.v()
        # d(u^i) = d(u^(i-1)) u + u^(i-1) d(u), likewise for v
        dus = [alg.zero_elem()]
        for i in range(1, m):
            dus.append(dus[i - 1] * u1 + alg.u(i - 1) * self.du)
        dvs = [alg.zero_elem()]
        for j in range(1, m):
            dvs.append(dvs[j - 1] * v1 + alg.v(j - 1) * self.dv)
        images = []
        for i in range(m):
            row = []
            ui = alg.u(i)
            for j in range(m):
                row.append(dus[i] * alg.v(j) + ui * dvs[j])
            images.append(row)
        self._images = images
        return images

    def apply(self, x: SymbolElem) -> SymbolElem:
        alg = self.algebra
        x = alg.coerce_elem(x)
        total = alg.zero_elem()
        for (i, j), c in x.terms.items():
            if self.includes_base:
                dc = c.derive()
                if not dc.is_zero():
                    total = total + alg.monomial(i, j, dc)
            # d(1) = 0, so a scalar needs none of the m^2 basis images
            if i or j:
                total = total + self._basis_images()[i][j].scale(c)
        return total

    def __add__(self, other: "Derivation") -> "Derivation":
        if other.algebra != self.algebra:
            raise ValueError("derivations on different algebras")
        return Derivation(
            self.algebra,
            self.du + other.du,
            self.dv + other.dv,
            includes_base=self.includes_base or other.includes_base,
        )

    def extend(self, ext: SymbolAlgebra) -> "Derivation":
        """The induced derivation on A tensor E, where ext is ``algebra.extend(E)`` or an equal algebra."""
        alg = self.algebra
        coerce = ext.field.coerce
        if not (ext.m == alg.m and ext.alpha == coerce(alg.alpha) and ext.beta == coerce(alg.beta)):
            raise ValueError("ext is not the algebra extended to a larger field")
        return Derivation(ext, self.du, self.dv, self.includes_base)

    def verdict(self) -> DerivationVerdict:
        return validate(self.algebra, self.du, self.dv)


def standard_derivation(algebra: SymbolAlgebra) -> Derivation:
    """d_s(u) = delta(alpha)/(m alpha) u, d_s(v) = delta(beta)/(m beta) v."""
    ru, rv = algebra.standard_rates
    return Derivation(algebra, algebra.monomial(1, 0, ru), algebra.monomial(0, 1, rv))


def inner_derivation(theta: SymbolElem) -> Derivation:
    """x -> x theta - theta x; k-linear, vanishes on the center."""
    alg = theta.algebra
    u1 = alg.u()
    v1 = alg.v()
    return Derivation(alg, u1 * theta - theta * u1, v1 * theta - theta * v1, includes_base=False)


def validate(algebra: SymbolAlgebra, du: SymbolElem, dv: SymbolElem) -> DerivationVerdict:
    """Check the derivation-validity conditions on candidate images du, dv.

    Tags: A (d(u) coefficient condition), B (d(v) coefficient condition),
    REL1..REL4 (the four bilinear relations).  The minor identity
    T_alpha^-1 B' T_beta = -A' follows from the relations, so it is not
    checked again here.
    """
    alg = algebra
    m = alg.m
    a = alg.coerce_elem(du).grid
    b = alg.coerce_elem(dv).grid
    failing = []

    ru, rv = alg.standard_rates
    if not a[1][0] == ru or any(not a[i][0].is_zero() for i in range(m) if i != 1):
        failing.append("A")
    if not b[0][1] == rv or any(not b[0][j].is_zero() for j in range(m) if j != 1):
        failing.append("B")

    # 1 - w and the w^j - w enter O(m^2) terms, so each is computed once per call
    w = alg._omega_pow
    one_minus_w = alg.field.one() - w[1]
    off = [wj - w[1] for wj in w]
    if not (a[0][m - 1] * alg.beta + b[m - 1][0] * alg.alpha).is_zero():
        failing.append("REL1")
    if any(
        not (a[0][j - 1] * one_minus_w + b[m - 1][j] * off[j] * alg.alpha).is_zero()
        for j in range(1, m)
    ):
        failing.append("REL2")
    if any(
        not (a[i][m - 1] * off[i] * alg.beta + b[i - 1][0] * one_minus_w).is_zero()
        for i in range(1, m)
    ):
        failing.append("REL3")
    if any(
        not (a[i][j - 1] * off[i] + b[i - 1][j] * off[j]).is_zero()
        for i in range(1, m)
        for j in range(1, m)
    ):
        failing.append("REL4")

    return DerivationVerdict(ok=not failing, failing=failing)


def decompose(d: Derivation) -> SymbolElem:
    """The unique trace-zero theta with d = d_s + inner(theta)."""
    alg = d.algebra
    m = alg.m
    verdict = d.verdict()
    if not verdict.ok:
        raise ValueError(f"not a derivation: conditions {verdict.failing} fail")
    # g[j] = (1 - w^j)^-1, so 1/(w^i - 1) = -g[i] and 1/((1 - w^j) alpha) = g[j] alpha^-1
    g, alpha_inv = alg.inverse_gaps
    # theta[i][0] = -dv[i][1] g[i] for i >= 1, theta[i-1][j] = du[i][j] g[j] for j >= 1,
    # wrapping to theta[m-1][j] = du[0][j] g[j] alpha^-1; a product of nonzeros is nonzero
    terms = {}
    for (i, j), c in d.dv.terms.items():
        if i and j == 1:
            terms[i, 0] = -(c * g[i])
    for (i, j), c in d.du.terms.items():
        if j:
            terms[(i - 1) % m, j] = c * g[j] if i else c * g[j] * alpha_inv
    theta = _symbol(alg, terms)
    recomposed = standard_derivation(alg) + inner_derivation(theta)
    if not (recomposed.du == d.du and recomposed.dv == d.dv):
        raise AssertionError("decomposition failed to reproduce d(u), d(v)")
    return theta


def constants_inner(theta: SymbolElem):
    """Constants of inner(theta) over a zero base derivation: the centralizer."""
    alg = theta.algebra
    if not alg.field.is_zero_derivation:
        raise ValueError("constants of an inner derivation require the zero base derivation")
    basis = centralizer(theta)
    if len(basis) < alg.m:
        raise AssertionError("centralizer dimension below m contradicts the double centralizer bound")
    return basis


@dataclass
class ConstantWitness:
    """A monomial constant h u^i v^j of d_s, certified by alpha^-i beta^-j = c h^m."""

    i: int
    j: int
    c: object
    h: object

    def to_json(self):
        return {"i": self.i, "j": self.j, "c": scalar_to_str(self.c), "h": scalar_to_str(self.h)}


def constants_standard(algebra: SymbolAlgebra):
    """New constants of (A, d_s) beyond the base constants, as monomial witnesses."""
    m = algebra.m
    ds = standard_derivation(algebra)
    witnesses = []
    for i in range(m):
        for j in range(m):
            if i == 0 and j == 0:
                continue
            f = algebra.alpha ** (-i) * algebra.beta ** (-j)
            res = mth_power_up_to_constant(f, m)
            if res is None:
                continue
            c, h = res
            candidate = algebra.monomial(i, j, h)
            if not ds.apply(candidate).is_zero():
                raise AssertionError("power witness failed the d_s constant check")
            witnesses.append(ConstantWitness(i, j, c, h))
    return witnesses


def subfield_stable(d: Derivation, gamma: SymbolElem) -> bool:
    """True iff d maps the subfield generated by gamma into itself."""
    return in_generated_subfield(d.apply(gamma), gamma)

