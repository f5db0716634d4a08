"""Differential splitting constructions and their verification.

The pipeline: Phi maps A tensor k(xi) onto M_m(k(xi)); a derivation
d = d_s + inner(theta) on A transports to d_P with P = Phi(theta) + P_s,
P_s the diagonal matrix of d_s; explicit gauge matrices F with
delta^c(F) = PF are then built over a Kummer tower (standard derivation), a
monomial differential field (inner derivations over a zero base derivation),
or a fully generic polynomial field.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .deriv import Derivation, decompose, inner_derivation, standard_derivation
from .errors import SelfCheckError
from .matdiff import DiffMatrix, GaugeVerdict, _matrix, apply_dP, verify_gauge
from .parser import scalar_to_str
from .scalars import (
    CycloField,
    KummerField,
    MonomialDiffField,
    PolyDiffField,
    RatFuncField,
    is_prime,
    mth_root,
    valuations,
)
from .scalars.monomial import _polydiff
from .symalg import SymbolAlgebra, SymbolElem, twisted_centralizer


def xi_extension(algebra: SymbolAlgebra) -> KummerField:
    """k(xi), xi^m = alpha, with the rate delta(alpha)/(m alpha) the algebra holds."""
    return KummerField(algebra.field, algebra.alpha, algebra.m, "xi", algebra.standard_rates[0])


class PhiMap:
    """The splitting isomorphism A tensor k(xi) -> M_m(k(xi)).

    u maps to the diagonal matrix diag(xi, w^{m-1} xi, ..., w xi), v maps to
    the companion-style matrix with beta in the top-right corner and an
    identity block below the diagonal.
    """

    def __init__(self, algebra: SymbolAlgebra, xi_field: KummerField):
        m = algebra.m
        if xi_field.m != m:
            raise ValueError("extension degree must match the algebra degree")
        if not xi_field.coerce(algebra.alpha) == xi_field.coerce(xi_field.alpha):
            raise ValueError("xi^m must equal alpha")
        self.algebra = algebra
        self.ext_field = xi_field
        self.ext_algebra = algebra.extend(xi_field)
        xi = xi_field.gen()
        w_pows = xi_field.cyclo.omega_powers
        diag = [xi * xi_field.coerce(w_pows[(m - r) % m]) for r in range(m)]
        self.a_mat = DiffMatrix.diagonal(xi_field, diag)
        rows = [[xi_field.zero()] * m for _ in range(m)]
        rows[0][m - 1] = xi_field.coerce(algebra.beta)
        for r in range(1, m):
            rows[r][r - 1] = xi_field.one()
        self.b_mat = _matrix(xi_field, rows)
        # _a_diag[i][r] = A^i[r][r] = xi^i w^((m-r)i mod m), a row appended when apply first needs it
        self._a_diag = [[xi_field.one()] * m, diag]
        self._beta = xi_field.coerce(algebra.beta)
        self._validate_relations()

    @functools.cached_property
    def p_s(self) -> DiffMatrix:
        """P_s = (delta(beta)/(m beta)) diag(t_0..t_{m-1}), the matrix of d_s, built on first use."""
        e = self.ext_field
        rate = e.coerce(self.algebra.standard_rates[1])
        return DiffMatrix.diagonal(e, [rate * t for t in t_r_values(self.algebra.m)])

    def _validate_relations(self):
        """A^m = alpha I, B^m = beta I and BA = w AB, checked on the support of A and B.

        A must be diagonal and B a weighted cyclic shift, nonzero only at
        (r, r - 1 mod m). Then B^m is the product of B's m shift entries
        times I, and row r of BA = w AB is
        B[r][r-1] A[r-1][r-1] = w A[r][r] B[r][r-1]: one identity per row,
        and no matrix product. A^m is diag(A[r][r]^m), and one row decides
        it: the shift entries multiply to beta, so none is zero, and the rows
        of BA = w AB give A[r-1][r-1] = w A[r][r], so every A[r][r]^m equals
        A[0][0]^m, since w^m = 1.
        """
        m = self.algebra.m
        e = self.ext_field
        a, b = self.a_mat.rows, self.b_mat.rows
        for r in range(m):
            for s in range(m):
                if s != r and not a[r][s].is_zero():
                    raise SelfCheckError(f"A is not diagonal: entry ({r}, {s}) is nonzero")
                if s != (r - 1) % m and not b[r][s].is_zero():
                    raise SelfCheckError(f"B is not a weighted cyclic shift: entry ({r}, {s}) is nonzero")
        if not math.prod((b[r][r - 1] for r in range(m)), start=e.one()) == e.coerce(self.algebra.beta):
            raise SelfCheckError("B^m != beta I: the shift entries do not multiply to beta")
        omega = e.coerce(e.cyclo.omega())
        for r in range(m):
            shift = b[r][r - 1]
            if not shift * a[r - 1][r - 1] == omega * a[r][r] * shift:
                raise SelfCheckError(f"BA != omega AB: row {r}")
        if not a[0][0] ** m == e.coerce(self.algebra.alpha):
            raise SelfCheckError("A^m != alpha I: A[0][0]^m is not alpha")

    def _a_powers(self, top: int) -> list:
        """The rows A^0, ..., A^top of _a_diag, each new row the one before times A's diagonal."""
        table = self._a_diag
        while len(table) <= top:
            table.append([a * b for a, b in zip(table[-1], table[1])])
        return table

    def apply(self, x: SymbolElem) -> DiffMatrix:
        """Phi(x) = sum_ij x_ij A^i B^j, built entry by entry.

        A^i is diagonal, and row r of B^j has its one nonzero entry in column
        (r - j) mod m: beta where the shift wraps (r < s), 1 otherwise. So

            Phi(x)[r][s] = (beta if r < s else 1) * sum_i x[i][(r-s) mod m] A^i[r][r],

        m scalar products per term of x in place of m^2 matrix products.
        """
        x = self.ext_algebra.coerce_elem(x)
        m = self.algebra.m
        zero = self.ext_field.zero()
        rows = [[zero] * m for _ in range(m)]
        a_pows = self._a_powers(max((i for i, _ in x.terms), default=0))
        for (i, j), c in x.terms.items():
            a_i = a_pows[i]
            for r in range(m):
                row, s = rows[r], (r - j) % m
                term = c * a_i[r]
                row[s] = term if row[s].is_zero() else row[s] + term
        for r in range(m):
            row = rows[r]
            for s in range(r + 1, m):
                if not row[s].is_zero():
                    row[s] = row[s] * self._beta
        return _matrix(self.ext_field, rows)


def t_r_values(m: int) -> list[Fraction]:
    """[t_0, ..., t_{m-1}] as the cyclotomic sums, each asserted equal to (m-1)/2 - r.

    The sums are computed and checked on the first call for each m; later
    calls read the checked values, each time as a new list.
    """
    return list(_checked_t_r(m))


@functools.cache
def _checked_t_r(m: int) -> tuple[Fraction, ...]:
    """t_r = sum_{i=1}^{m-1} (w^(ri) (1 - w^i))^-1 = sum_i w^(-ri) (1 - w^i)^-1.

    The m - 1 inverses (1 - w^i)^-1 do not depend on r: they are the field's
    ``inverse_gaps``.  Every one of the m sums is still computed and checked.
    """
    cyclo = CycloField(m)
    w_pows = cyclo.omega_powers
    values = []
    for r in range(m):
        total = cyclo.zero()
        for i, g in enumerate(cyclo.inverse_gaps[1:], start=1):
            total = total + w_pows[-(r * i) % m] * g
        closed = Fraction(m - 1, 2) - r
        if not total == cyclo.from_rational(closed):
            raise SelfCheckError(f"t_r sum disagrees with the closed form at m={m}, r={r}")
        values.append(closed)
    return tuple(values)


def closed_form_P(theta: SymbolElem, phi: PhiMap) -> DiffMatrix:
    """P = Phi(theta) + P_s, the matrix of d_s + inner(theta) transported by Phi.

    Phi carries d_s to d_{P_s} (``phi.p_s``; P_s = -Phi(w) for the w with
    d_Phi = d_s + inner(w)), and inner(theta) to the commutator with
    Phi(theta).
    """
    return phi.apply(theta) + phi.p_s


def compute_P(d: Derivation, phi: PhiMap) -> DiffMatrix:
    """P with Phi(d*(x)) = d_P(Phi(x)), from d = d_s + inner(theta)."""
    return closed_form_P(decompose(d), phi)


def compute_P_with_diagnostics(d: Derivation, phi: PhiMap):
    """(compute_P(d, phi), []): kept only for the split-generic benchmark workload and its tracer, which take a pair."""
    return compute_P(d, phi), []


@dataclass
class IsoVerdict:
    ok: bool
    failing_basis: tuple | None

    def to_json(self):
        return {"ok": self.ok, "failing_basis": list(self.failing_basis) if self.failing_basis else None}


def verify_diff_isomorphism(phi: PhiMap, d: Derivation, p: DiffMatrix) -> IsoVerdict:
    """Check Phi(d*(x)) = d_P(Phi(x)) for x = v, u and the scalar generators xi, t.

    Agreement on v and u is agreement on every basis element u^i v^j:

    * d* = d_s + inner(theta), or inner(theta) alone, is a derivation:
      ``Derivation`` holds theta, and takes images only once validated;
    * Phi is multiplicative, because ``PhiMap`` validated A^m = alpha I,
      B^m = beta I and BA = w AB at construction; this is the precondition;
    * d_P is a derivation on matrices.

    So Phi o d* and d_P o Phi, both Leibniz along Phi, agree on every u^i v^j
    if and only if they agree on u and on v. The verdict on the basis equals
    that of a check on all m^2 basis elements in row-major order,
    failing_basis included: 1 = u^0 v^0 never fails (d*(1) = 0 and
    d_P(I) = 0), a failure at any u^i v^j implies one at u or v, and
    v = (0, 1) comes before u = (1, 0).

    On a scalar x, Phi(x) = xI commutes with P, so d_P(xI) = delta(x) I, and
    Phi is injective: the check is d*(x) = delta(x) in A tensor k(xi), with
    no matrix built. It runs on each of the field's ``generators()`` but w, xi
    first and the variable t last; every derivation kills Q(w), so these
    decide agreement on all coefficients.
    """
    alg = phi.ext_algebra
    d_ext = d.extend(alg)
    # d_ext.dv and d_ext.du are d*(v) and d*(u), computed over k and coerced by extend;
    # Phi(v) = B and Phi(u) = A are the matrices PhiMap validated
    for label, x, image in (((0, 1), phi.b_mat, d_ext.dv), ((1, 0), phi.a_mat, d_ext.du)):
        if not phi.apply(image) == apply_dP(p, x):
            return IsoVerdict(False, label)
    for name, x in phi.ext_field.generators().items():
        if name != "w" and not d_ext.apply(alg.scalar(x)) == alg.scalar(x.derive()):
            return IsoVerdict(False, (name,))
    return IsoVerdict(True, None)


@dataclass
class SplitReport:
    """``extension["tower"]`` lists the adjoined generators, each with its certified Kummer power or None."""

    extension: dict
    p: DiffMatrix
    f: DiffMatrix
    gauge: GaugeVerdict
    isomorphism: IsoVerdict | None

    @property
    def degree(self) -> int | None:
        """The product of the Kummer powers, or None once a generator is transcendental."""
        powers = [g["power"] for g in self.extension["tower"]]
        return None if None in powers else math.prod(powers)

    @property
    def transcendence_degree(self) -> int:
        """The number of transcendental generators."""
        return sum(g["power"] is None for g in self.extension["tower"])

    @property
    def passed(self) -> bool:
        return self.gauge.ok and (self.isomorphism is None or self.isomorphism.ok)

    def to_json(self):
        return {
            "extension": self.extension,
            "P": self.p.to_json(),
            "F": self.f.to_json(),
            "verdicts": {
                "gauge": self.gauge.to_json(),
                "isomorphism": self.isomorphism.to_json() if self.isomorphism else None,
            },
            "degree": self.degree,
            "transcendence_degree": self.transcendence_degree,
            # "diagnostics" stays in the report schema; every construction self-checks instead
            "diagnostics": [],
        }


def _tower_entry(field: KummerField) -> dict:
    return {"gen": field.gen_name, "power": field.m, "radicand": scalar_to_str(field.alpha)}


def _diagonal_split(phi, d, p, e, gens, exponents, extension) -> SplitReport:
    """The report for the diagonal gauge F = diag(prod_i gens[i]^exponents[r][i]) over E.

    With delta(g_i) = c_i g_i, delta(F[r][r]) = (sum_i exponents[r][i] c_i) F[r][r]:
    F is a gauge for a diagonal P when each row of exponents weights the rates to P[r][r].
    """
    iso = verify_diff_isomorphism(phi, d, p)
    entries = [math.prod((g**n for g, n in zip(gens, row) if n), start=e.one()) for row in exponents]
    f_mat = DiffMatrix.diagonal(e, entries)
    return SplitReport(extension, p, f_mat, verify_gauge(p.coerce_to(e), f_mat), iso)


def split_standard(algebra: SymbolAlgebra) -> SplitReport:
    """Finite splitting field for d_s: adjoin xi and g with g^(nm) = beta, and F = diag(g^(n t_r)).

    n is the denominator of the t_r = (m-1)/2 - r: for odd m, n = 1 and
    g = eta, of degree m^2; for even m, n = 2 and g = zeta, of degree 2m^2.
    A constant beta adjoins no g: P_s = 0 and F = I over k(xi), of degree m.
    """
    k = algebra.field
    if not isinstance(k, RatFuncField):
        raise ValueError("standard splitting is built over the rational function field")
    m = algebra.m
    xi_field = xi_extension(algebra)
    phi = PhiMap(algebra, xi_field)
    ext = {"tower": [_tower_entry(xi_field)], "derivation_rules": [f"delta(xi) = delta(alpha)/({m} alpha) xi"]}
    t0 = Fraction(m - 1, 2)  # t_r = t0 - r, which t_r_values checks against the cyclotomic sums
    n = t0.denominator
    e, gens = xi_field, []
    if not algebra.beta.derive().is_zero():
        name = "eta" if n == 1 else "zeta"
        # delta(g) = delta(beta)/(n m beta) g: the algebra's rate of v over n, as xi_extension reads its own
        e = KummerField(xi_field, algebra.beta, n * m, name, algebra.standard_rates[1] / n)
        gens = [e.gen()]
        ext["tower"].append(_tower_entry(e))
        ext["derivation_rules"].append(f"delta({name}) = delta(beta)/({n * m} beta) {name}")
    exponents = [[int(n * (t0 - r))] * len(gens) for r in range(m)]
    return _diagonal_split(phi, standard_derivation(algebra), phi.p_s, e, gens, exponents, ext)


def find_twist_partner(rho1: SymbolElem):
    """The first twisted-centralizer basis vector x (x rho1 = omega rho1 x) with x^m a nonzero scalar.

    None means that no basis vector works, not that no such x exists."""
    alg = rho1.algebra
    for x in twisted_centralizer(rho1, alg.omega):
        xm = x**alg.m
        if xm.is_scalar() and not xm.is_zero():
            return x
    return None


def _require_zero_base(algebra: SymbolAlgebra):
    if not algebra.field.is_zero_derivation:
        raise ValueError("this construction requires the zero base derivation")


def _require_u_polynomial(rho: SymbolElem):
    if any(j for _, j in rho.terms):
        raise ValueError(
            "rho must be written as a polynomial in u; "
            "rewrite it over a Kummer generator first (see find_twist_partner)"
        )


def _exponential_split(phi: PhiMap, rho: SymbolElem, p: DiffMatrix, rates, exponents) -> SplitReport:
    """Report for inner(rho), P = Phi(rho) diagonal: adjoin x_i with delta(x_i) = rates[i] x_i.

    Row r of the integer matrix exponents makes F[r][r] = prod_i x_i^exponents[r][i].
    """
    names = [f"x{i}" for i in range(len(rates))]
    e = MonomialDiffField(phi.ext_field, names, rates)
    extension = {
        "tower": [_tower_entry(phi.ext_field)] + [{"gen": n, "power": None, "radicand": None} for n in names],
        "derivation_rules": [f"delta({n}) = ({scalar_to_str(r)}) {n}" for n, r in zip(names, rates)],
    }
    gens = [e.gen(i) for i in range(len(names))]
    return _diagonal_split(phi, inner_derivation(rho), p, e, gens, exponents, extension)


def split_inner_cyclic(algebra: SymbolAlgebra, rho: SymbolElem) -> SplitReport:
    """Transcendence-degree-m splitting field for inner(rho), zero base derivation: exponents I."""
    _require_zero_base(algebra)
    rho = algebra.coerce_elem(rho)
    m = algebra.m
    _require_u_polynomial(rho)
    phi = PhiMap(algebra, xi_extension(algebra))
    p = phi.apply(rho)
    # k[u] = k(xi) is a field (its Kummer certificate) and Galois over k, as w is in k, so
    # the diagonal rho(w^j xi) of P lists rho's conjugates: k(rho) has degree m iff they differ
    rates = [p.rows[r][r] for r in range(m)]
    if any(rates[r] == rates[s] for r in range(m) for s in range(r)):
        raise ValueError("rho does not generate a degree-m subfield")
    eye = [[int(r == i) for i in range(m)] for r in range(m)]
    return _exponential_split(phi, rho, p, rates, eye)


def split_inner_even_half(algebra: SymbolAlgebra, rho: SymbolElem) -> SplitReport:
    """Transcendence degree m/2 for even m and rho a scalar multiple of u: exponents [I; -I].

    The gauge matrix is diag(F0, F0^{-1}) with F0 = diag(x_0..x_{m/2-1}):
    the lower block must carry the inverse variables for delta^c(F) = PF
    to hold on the -P0 block.
    """
    _require_zero_base(algebra)
    m = algebra.m
    if m % 2 != 0:
        raise ValueError("the half construction needs even m")
    rho = algebra.coerce_elem(rho)
    if rho.terms.keys() != {(1, 0)}:
        raise ValueError("rho must be a nonzero scalar multiple of u")
    half = m // 2
    phi = PhiMap(algebra, xi_extension(algebra))
    p = phi.apply(rho)
    # P = Phi(c u) has c xi w^(m-r) at row r and its negative at row r + m/2,
    # since w^(m/2) = -1: the block form diag(P0, -P0) holds by construction
    for r in range(half):
        if not (p.rows[r][r] + p.rows[half + r][half + r]).is_zero():
            raise SelfCheckError(f"block antisymmetry of P fails at row {r}")
    eye = [[int(r == i) for i in range(half)] for r in range(half)]
    exponents = eye + [[-n for n in row] for row in eye]
    return _exponential_split(phi, rho, p, [p.rows[r][r] for r in range(half)], exponents)


def split_generic(p: DiffMatrix) -> SplitReport:
    """Generic splitting field: adjoin m^2 indeterminates with delta(X) = PX.

    x_rs is named x{r}{s} with both indices padded to the width of m - 1, so
    the names stay distinct past m = 10 (x0110 is x_{1,10}, x1100 is x_{11,0}).
    delta(x_rs) = sum_l P[r][l] x_ls is built in one pass over the support of
    row r of P: its monomials x_ls are distinct, so no two terms merge.  F is
    the matrix of the field's own generators.
    """
    m = p.size
    base = p.field
    width = len(str(m - 1))
    names = [f"x{r:0{width}}{s:0{width}}" for r in range(m) for s in range(m)]
    e = PolyDiffField(base, names)
    for r, row in enumerate(p.rows):
        # (index of x_l0, P[r][l]) for each nonzero P[r][l]
        support = [(l * m, c) for l, c in enumerate(row) if not c.is_zero()]
        for s in range(m):
            e.set_gen_derivative(r * m + s, _polydiff(e, {((i + s, 1),): c for i, c in support}))
    f_mat = _matrix(e, [[e.gen(r * m + s) for s in range(m)] for r in range(m)])
    gauge = verify_gauge(p.coerce_to(e), f_mat)
    return SplitReport(
        extension={
            "tower": [{"gen": n, "power": None, "radicand": None} for n in names],
            "derivation_rules": ["delta(X) = P X entry-wise"],
        },
        p=p,
        f=f_mat,
        gauge=gauge,
        isomorphism=None,
    )


@dataclass
class MaxSubfieldReport:
    alpha_witness: tuple | None
    beta_witness: tuple | None

    @property
    def refuted(self) -> bool:
        return self.alpha_witness is None or self.beta_witness is None

    def to_json(self):
        def enc(wit):
            if wit is None:
                return None
            r, c, h = wit
            return {"r": r, "c": scalar_to_str(c), "h": scalar_to_str(h)}

        return {
            "alpha_witness": enc(self.alpha_witness),
            "beta_witness": enc(self.beta_witness),
            "refuted": self.refuted,
        }


def maximal_subfield_necessary(algebra: SymbolAlgebra, nu) -> MaxSubfieldReport:
    """Necessary-condition search for L = k(gamma), gamma^m = nu, splitting (A, d_s).

    Splitting requires constants lambda, mu with lambda*alpha and mu*beta
    both m-th powers times a power of nu; absence of a witness on either
    side refutes the candidate subfield.
    """
    m = algebra.m
    if not is_prime(m):
        raise ValueError("the necessary condition is stated for prime m")
    nu = algebra.field.coerce(nu)
    if nu.is_zero():
        raise ValueError("nu must be nonzero")
    basis, (va, vb, vn) = valuations(algebra.alpha, algebra.beta, nu)
    for name, value, v in (("alpha", algebra.alpha, va), ("beta", algebra.beta, vb)):
        if not any(e % m for e in v):
            mth_root(value, basis, v, m)  # checks the verdict before refusing on it
            raise ValueError(f"hypothesis violation: {name} is an m-th power up to constant")

    def search(value, v):
        for r in range(1, m):
            quotient = [a - r * b for a, b in zip(v, vn)]  # the vector of value / nu^r
            if not any(e % m for e in quotient):
                return (r, *mth_root(value / nu**r, basis, quotient, m))
        return None

    return MaxSubfieldReport(alpha_witness=search(algebra.alpha, va), beta_witness=search(algebra.beta, vb))
