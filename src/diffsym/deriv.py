"""Derivations on the symbol algebra extending the base derivation.

Every valid d splits uniquely as d = d_s + inner(theta) with theta trace-zero,
and a ``Derivation`` holds d in that form.  Images d(u), d(v) from outside are
solved for theta and must come back from d_s + inner(theta); ``validate``
checks them by two coefficient conditions plus four bilinear relations coming
from d(vu) = d(w uv).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .errors import SelfCheckError
from .parser import scalar_to_str
from .scalars import mth_root, valuations
from .symalg import SymbolAlgebra, SymbolElem, centralizer, in_generated_subfield


@dataclass
class DerivationVerdict:
    ok: bool
    failing: list = dc_field(default_factory=list)

    def to_json(self):
        # "diagnostics" stays in the report schema; validate has none to give
        return {"ok": self.ok, "failing": list(self.failing), "diagnostics": []}


class Derivation:
    """d_s + inner(theta) on A, or inner(theta) alone, held as theta with no u^0 v^0 term and ``includes_ds``.

    ``Derivation(algebra, du, dv)`` takes images from outside; d_s + inner(theta),
    with theta solved from them, must reproduce them.  Everything else builds
    through the trusted ``_derivation``.
    """

    def __init__(self, algebra: SymbolAlgebra, du: SymbolElem, dv: SymbolElem):
        du = algebra.coerce_elem(du)
        dv = algebra.coerce_elem(dv)
        m = algebra.m
        # g[j] = (1 - w^j)^-1, so 1/(w^i - 1) = -g[i] and 1/((1 - w^j) alpha) = g[j] alpha^-1
        g, alpha_inv = algebra.inverse_gaps
        # theta[i][0] = -dv[i][1] g[i] for i >= 1, theta[i-1][j] = du[i][j] g[j] for j >= 1,
        # wrapping to theta[m-1][j] = du[0][j] g[j] alpha^-1; a product of nonzeros is nonzero
        terms = {}
        for (i, j), c in dv.terms.items():
            if i and j == 1:
                terms[i, 0] = -(c * g[i])
        for (i, j), c in du.terms.items():
            if j:
                terms[(i - 1) % m, j] = c * g[j] if i else c * g[j] * alpha_inv
        self.algebra, self.theta, self.includes_ds = algebra, algebra._make(terms), True
        # d_s + inner(theta) is a derivation, so it gives the images back iff they
        # are valid; validate runs only to name the failing conditions
        if not (self.du == du and self.dv == dv):
            verdict = validate(algebra, du, dv)
            if not verdict.ok:
                raise ValueError(f"not a derivation: conditions {verdict.failing} fail")
            raise SelfCheckError("decomposition failed to reproduce d(u), d(v)")

    @cached_property
    def du(self) -> SymbolElem:
        return self.apply(self.algebra.u())

    @cached_property
    def dv(self) -> SymbolElem:
        return self.apply(self.algebra.v())

    def apply(self, x: SymbolElem) -> SymbolElem:
        """d_s(x) + x theta - theta x, with d_s(c u^i v^j) = (delta(c) + c (i ru + j rv)) u^i v^j.

        The commutator is one pass over the pairs of terms: a u^i v^j and b u^r v^s
        give ab (w^(jr) - w^(si)) u^(i+r) v^(j+s), with u^m = alpha and v^m = beta
        as in ``SymbolElem.__mul__``.  A pair with jr = si (mod m) cancels, the
        scalar term of x among them.
        """
        alg = self.algebra
        x = alg.coerce_elem(x)
        out = {}
        if self.includes_ds:
            for (i, j), c in x.terms.items():
                dc = c.derive()
                # a scalar needs no rates, which over a larger field cost a division
                if i or j:
                    ru, rv = alg.standard_rates
                    dc = dc + c * (ru * i + rv * j)
                if not dc.is_zero():
                    out[i, j] = dc
        m = alg.m
        w, alpha, beta = alg._omega_pow, alg.alpha, alg.beta
        right = self.theta.terms.items()
        for (i, j), a in x.terms.items():
            for (r, s), b in right:
                jr, si = j * r % m, s * i % m
                if jr == si:
                    continue
                c = a * b * (w[jr] - w[si])
                ii, jj = i + r, j + s
                if ii >= m:
                    ii -= m
                    c = c * alpha
                if jj >= m:
                    jj -= m
                    c = c * beta
                prev = out.get((ii, jj))
                out[ii, jj] = c if prev is None else prev + c
        return alg._make({key: c for key, c in out.items() if not c.is_zero()})

    def __add__(self, other: "Derivation") -> "Derivation":
        alg = self.algebra
        if other.algebra != alg:
            raise ValueError("derivations on different algebras")
        if self.includes_ds and other.includes_ds and not alg.field.is_zero_derivation:
            raise ValueError("d_s + d_s does not extend the base derivation: it differentiates the coefficients twice")
        return _derivation(alg, self.theta + other.theta, self.includes_ds or other.includes_ds)

    def extend(self, ext: SymbolAlgebra) -> "Derivation":
        """The induced derivation on A tensor E, where ext is ``algebra.extend(E)`` or an equal algebra.

        Only theta is coerced into ext; d*(u) and d*(v) over E are built on
        first read, and a caller that reads them over k reads ``self.du`` and
        ``self.dv``, which d* extends.
        """
        alg = self.algebra
        coerce = ext.field.coerce
        if not (ext.m == alg.m and ext.alpha == coerce(alg.alpha) and ext.beta == coerce(alg.beta)):
            raise ValueError("ext is not the algebra extended to a larger field")
        return _derivation(ext, ext.coerce_elem(self.theta), self.includes_ds)


_new = object.__new__


def _derivation(algebra: SymbolAlgebra, theta: SymbolElem, includes_ds: bool) -> Derivation:
    """The trusted constructor: theta in algebra with no u^0 v^0 term."""
    d = _new(Derivation)
    d.algebra, d.theta, d.includes_ds = algebra, theta, includes_ds
    return d


def standard_derivation(algebra: SymbolAlgebra) -> Derivation:
    """d_s(u) = delta(alpha)/(m alpha) u, d_s(v) = delta(beta)/(m beta) v."""
    return _derivation(algebra, algebra.zero_elem(), True)


def inner_derivation(theta: SymbolElem) -> Derivation:
    """x -> x theta - theta x; k-linear, vanishes on the center."""
    return _derivation(theta.algebra, theta._with({k: c for k, c in theta.terms.items() if k != (0, 0)}), False)


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
    """The unique trace-zero theta with d = d_s + inner(theta).

    inner(theta) alone is k-linear, so it extends only the zero base derivation.
    """
    if not d.includes_ds and not d.algebra.field.is_zero_derivation:
        raise ValueError("not a derivation: inner(theta) alone does not differentiate the coefficients")
    return d.theta


def constants_inner(theta: SymbolElem):
    """Constants of inner(theta) over a zero base derivation: the centralizer."""
    alg = theta.algebra
    if not alg.field.is_zero_derivation:
        raise ValueError("constants of an inner derivation require the zero base derivation")
    basis = centralizer(theta)
    if len(basis) < alg.m:
        raise SelfCheckError("centralizer dimension below m contradicts the double centralizer bound")
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
    """New constants of (A, d_s) beyond the base constants, as monomial witnesses.

    alpha^-i beta^-j is built only where m divides its vector -i v_alpha - j v_beta.
    """
    m = algebra.m
    ds = standard_derivation(algebra)
    basis, (va, vb) = valuations(algebra.alpha, algebra.beta)
    witnesses = []
    for i in range(m):
        for j in range(m):
            v = [-i * a - j * b for a, b in zip(va, vb)]
            if (i, j) == (0, 0) or any(e % m for e in v):
                continue
            c, h = mth_root(algebra.alpha ** (-i) * algebra.beta ** (-j), basis, v, m)
            candidate = algebra.monomial(i, j, h)
            if not ds.apply(candidate).is_zero():
                raise SelfCheckError("power witness failed the d_s constant check")
            witnesses.append(ConstantWitness(i, j, c, h))
    return witnesses


def subfield_stable(d: Derivation, gamma: SymbolElem) -> bool:
    """True iff d maps the subfield generated by gamma into itself."""
    return in_generated_subfield(d.apply(gamma), gamma)

