"""Differential splitting constructions and their verification.

The pipeline: Phi maps A tensor k(xi) onto M_m(k(xi)); a derivation
d = d_s + inner(theta) on A transports to d_P with P = Phi(theta) + P_s,
P_s the diagonal matrix of d_s; explicit gauge matrices F with
delta^c(F) = PF are then built, for a diagonal P, by one engine over a Kummer
generator for P_s and exponentials for Phi(theta) (``_diagonal_split``), or
over a fully generic polynomial field. The engine's callers are d_s alone
(``split_standard``) and inner(rho) alone (``split_inner``), which takes one
exponential per basis rate of the lattice that the integer relations among
Phi(rho)'s diagonal entries leave: over the zero base, the least
transcendence degree.
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
    RatFunc,
    RatFuncField,
    echelon,
    is_prime,
    mth_root,
    valuations,
)
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
        if xi_field.base != algebra.field:
            raise ValueError("xi must be adjoined to the algebra's own field")
        if not xi_field.coerce(algebra.alpha) == xi_field.coerce(xi_field.alpha):
            raise ValueError("xi^m must equal alpha")
        self.algebra = algebra
        self.ext_field = xi_field
        self.ext_algebra = algebra.extend(xi_field)
        # A[r][r] = w^(m-r) xi, built as the single term {1: w^(m-r)}
        w_pows, coerce = xi_field.cyclo.omega_powers, xi_field.base.coerce
        diag = [xi_field._make({1: coerce(w_pows[(m - r) % m])}) for r in range(m)]
        self.a_mat = DiffMatrix.diagonal(xi_field, diag)
        rows = [[xi_field.zero()] * m for _ in range(m)]
        rows[0][m - 1] = xi_field.coerce(algebra.beta)
        for r in range(1, m):
            rows[r][r - 1] = xi_field.one()
        self.b_mat = _matrix(xi_field, rows)
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

    def apply(self, x: SymbolElem, diagonal=()) -> DiffMatrix:
        """Phi(x) = sum_ij x_ij A^i B^j, plus diag(diagonal) for scalars in diagonal, built in one pass.

        A^i = diag(w^((m-r)i mod m) xi^i), and row r of B^j has its one
        nonzero entry in column (r - j) mod m: beta where the shift wraps
        (r < j), 1 otherwise.  So a term c u^i v^j, with c = sum_l c_l xi^l
        over k (an element of k is the single term c xi^0), adds to entry
        (r, (r - j) mod m) the term

            c_l (beta if r < j) w^((m-r)i mod m) xi^(l+i),  xi^m = alpha.

        Each entry's terms are gathered in one dict over k, alpha and beta
        taken once per term c_l, w^0 with no product, and a sum that cancels
        dropped; each nonzero entry is then built once.  An element of A is
        read over k as it is; any other goes through ``coerce_elem``.  The
        diagonal seeds the gather, so Phi(x) + diag(diagonal) takes no
        matrix sum.
        """
        alg = self.algebra
        if x.algebra is alg:
            terms = [(key, ((0, c),)) for key, c in x.terms.items()]
        else:
            terms = [(key, c.terms.items()) for key, c in self.ext_algebra.coerce_elem(x).terms.items()]
        m, w, alpha, beta = alg.m, alg._omega_pow, alg.alpha, alg.beta
        e = self.ext_field
        # rows[r][s] is the dict of entry (r, s), from powers of xi to their coefficients in k
        rows = [[{} for _ in range(m)] for _ in range(m)]
        for r, d in enumerate(diagonal):
            rows[r][r].update(e.coerce(d).terms)
        for (i, j), xi_terms in terms:
            for l, c in xi_terms:
                n = l + i
                if n >= m:
                    n -= m
                    c = c * alpha
                wrapped = c * beta if j else c
                for r in range(m):
                    v = wrapped if r < j else c
                    p = (m - r) * i % m
                    if p:
                        v = v * w[p]
                    # a sum is tested for zero only where it is taken, as in Extension.sum_of_products
                    entry = rows[r][(r - j) % m]
                    prev = entry.get(n)
                    if prev is None:
                        entry[n] = v
                    elif (v := prev + v).is_zero():
                        del entry[n]
                    else:
                        entry[n] = v
        make, zero = e._make, e.zero()
        return _matrix(e, [[make(t) if t else zero for t in row] for row in rows])


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
    Phi(theta).  P_s's diagonal seeds the gather of Phi(theta) in ``apply``, so
    P is built in one pass, with no matrix sum.
    """
    return phi.apply(theta, [row[r] for r, row in enumerate(phi.p_s.rows)])


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
    """``extension["tower"]`` lists the adjoined generators, each with its certified Kummer power or None.

    A ``scalar_shift`` lambda in the base field means that both verdicts were
    taken against P + lambda I, which defines the same derivation d_P as P;
    None means they were taken against P itself.
    """

    extension: dict
    p: DiffMatrix
    f: DiffMatrix
    gauge: GaugeVerdict
    isomorphism: IsoVerdict | None
    scalar_shift: RatFunc | None = None

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
        shift = {} if self.scalar_shift is None else {"scalar_shift": scalar_to_str(self.scalar_shift)}
        return {
            "extension": self.extension,
            "P": self.p.to_json(),
            **shift,
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


def _diagonal_split(phi: PhiMap, d: Derivation, theta_p: DiffMatrix, exponents, rates) -> SplitReport:
    """The explicit split of d = d_s + inner(theta), or of inner(theta), when P = P_s + Phi(theta) is diagonal.

    theta_p is Phi(theta). When d includes d_s and rho = delta(beta)/(m beta) is nonzero,
    g with g^(nm) = beta and delta(g) = (rho/n) g is adjoined, n the denominator of
    t_0 = (m-1)/2; column i of exponents adjoins x_i with delta(x_i) = rates[i] x_i.
    F = diag(g^(n (m-1-r)) prod_i x_i^exponents[r][i]) is a gauge for
    diag((m-1-r) rho + Phi(theta)[r][r]) = P + lambda I, lambda = t_0 rho = P_s[0][0], when
    each row of exponents weights the rates to Phi(theta)[r][r]. d_(P + lambda I) = d_P, and
    both verdicts are taken against that diagonal, built directly, with no negative power of g
    in F. The report carries P and, when d includes d_s, lambda as its ``scalar_shift``.
    Adjoining exponentials is sound over any base derivation; the least transcendence degree
    is claimed only for ``split_inner``'s rates over the zero base, not over d/dt.
    """
    algebra, xi_field = phi.algebra, phi.ext_field
    m, ds = algebra.m, d.includes_ds
    rho = algebra.standard_rates[1] if ds else algebra.field.zero()
    tower, rules = [_tower_entry(xi_field)], [f"delta(xi) = delta(alpha)/({m} alpha) xi"] if ds else []
    theta_diag = [theta_p.rows[r][r] for r in range(m)]
    e, gens, rows, shifted = xi_field, [], exponents, theta_p
    if not rho.is_zero():
        n = Fraction(m - 1, 2).denominator  # t_r = t_0 - r, which t_r_values checks against the cyclotomic sums
        name = "eta" if n == 1 else "zeta"
        # the algebra's rate of v over n, as xi_extension reads its own
        e = KummerField(xi_field, algebra.beta, n * m, name, rho * Fraction(1, n))
        gens.append(e.gen())
        tower.append(_tower_entry(e))
        rules.append(f"delta({name}) = delta(beta)/({n * m} beta) {name}")
        rows = [[n * (m - 1 - r), *row] for r, row in enumerate(exponents)]
        rate = xi_field.coerce(rho)
        diagonal = [rate * (m - 1 - r) for r in range(m)]
        if not theta_p.is_zero():
            diagonal = [c + theta_diag[r] for r, c in enumerate(diagonal)]
        shifted = DiffMatrix.diagonal(xi_field, diagonal)
    names = [f"x{i}" for i in range(len(rates))]
    if names:
        e = MonomialDiffField(e, names, rates)
        gens = [e.coerce(g) for g in gens] + [e.gen(i) for i in range(len(names))]
        tower += [{"gen": x, "power": None, "radicand": None} for x in names]
        rules += [f"delta({x}) = ({scalar_to_str(c)}) {x}" for x, c in zip(names, rates)]
    iso = verify_diff_isomorphism(phi, d, shifted)
    f_mat = DiffMatrix.diagonal(e, [math.prod((g**k for g, k in zip(gens, row) if k), start=e.one()) for row in rows])
    gauge = verify_gauge(shifted.coerce_to(e), f_mat)
    # P itself for the report, P_s with no sum when Phi(theta) is zero; read after the verdicts,
    # since reading p_s earlier moves a garbage collection into the m = 5 cases (BENCH_44.json)
    p = (phi.p_s if theta_p.is_zero() else theta_p + phi.p_s) if ds else theta_p
    shift = phi.p_s.rows[0][0].base_value() if ds else None
    return SplitReport({"tower": tower, "derivation_rules": rules}, p, f_mat, gauge, iso, shift)


def split_standard(algebra: SymbolAlgebra) -> SplitReport:
    """Finite splitting field for d_s: the diagonal split with Phi(theta) = 0 and no exponential.

    F = diag(g^(n (m-1-r))) is g^(n t_0) times the paper's diag(g^(n t_r)), and F[m-1][m-1] = 1.
    For odd m, n = 1 and g = eta, of degree m^2; for even m, n = 2 and g = zeta, of
    degree 2m^2 (every exponent of F is then even). A constant beta adjoins no g:
    P_s = 0, lambda = 0 and F = I over k(xi), of degree m.
    """
    if not isinstance(algebra.field, RatFuncField):
        raise ValueError("standard splitting is built over the rational function field")
    m = algebra.m
    phi = PhiMap(algebra, xi_extension(algebra))
    return _diagonal_split(phi, standard_derivation(algebra), DiffMatrix.zero(phi.ext_field, m), [[]] * m, [])


def find_twist_partner(rho1: SymbolElem):
    """The first twisted-centralizer basis vector x (x rho1 = omega rho1 x) with x^m a nonzero scalar.

    None means that no basis vector works, not that no such x exists."""
    alg = rho1.algebra
    for x in twisted_centralizer(rho1, alg.omega):
        xm = x**alg.m
        if xm.is_scalar() and not xm.is_zero():
            return x
    return None


def split_inner(algebra: SymbolAlgebra, rho: SymbolElem) -> SplitReport:
    """The explicit split of inner(rho), zero base derivation, rho a polynomial in u: exponent rows off the rate lattice.

    theta is rho without its u^0 term, as inner(rho) holds it, and P = Phi(theta) is diagonal with
    c_r = P[r][r] = sum_i theta_i w^(-ri) xi^i, so sum_r c_r = 0. The xi^i are independent over k,
    so sum_r n_r c_r = 0 exactly when sum_r n_r w^(-ri) = 0 for every u-exponent i of theta: the
    integer relations among the c_r are those of the rows that join the coordinates of w^(-ri) over
    those i, built with no field arithmetic. With (l, U, U^-1) = echelon(rows), rows l on of U are
    relations, so c_r = sum_(i<l) U^-1[r][i] b_i for the basis rates b_i = sum_r U[i][r] c_r:
    F = diag(prod_i x_i^(U^-1[r][i])), delta(x_i) = b_i x_i, of transcendence degree l, the Q-rank
    of the c_r. For rho = u that is the degree phi(m) of Q(w).

    l is the least transcendence degree of a splitting field over the zero base. There every
    element of k(xi) is a constant, and a fundamental matrix over E(xi) holds y_r with
    delta(y_r)/y_r = c_r + lambda. A minimal algebraic relation among the y_r/y_0 joins only
    monomials whose exponents n have sum_r n_r (c_r - c_0) = 0 (Rosenlicht's argument for the
    Kolchin-Ostrowski theorem; Kolchin, Amer. J. Math. 90, 1968), so trdeg E is at least the Q-rank
    of the c_r - c_0, which is that of the c_r, as they sum to 0. Over d/dt a combination of
    rates may be a logarithmic derivative in k(xi), and no minimality is claimed there.
    """
    if not algebra.field.is_zero_derivation:
        raise ValueError("this construction requires the zero base derivation")
    rho = algebra.coerce_elem(rho)
    m = algebra.m
    if any(j for _, j in rho.terms):
        raise ValueError(
            "rho must be written as a polynomial in u; "
            "rewrite it over a Kummer generator first (see find_twist_partner)"
        )
    phi = PhiMap(algebra, xi_extension(algebra))
    d = inner_derivation(rho)
    w_pows = phi.ext_field.cyclo.omega_powers
    rows = [tuple(x for i, _ in sorted(d.theta.terms) for x in w_pows[-r * i % m].num) for r in range(m)]
    # k[u] = k(xi) is a field (its Kummer certificate) and Galois over k, as w is in k, so the
    # diagonal rho(w^j xi) of Phi(rho) lists rho's conjugates: k(rho) has degree m iff they
    # differ, and c_r = c_s exactly when rows r and s agree
    if len(set(rows)) < m:
        raise ValueError("rho does not generate a degree-m subfield")
    theta_p = phi.apply(d.theta)
    k, u, u_inv = echelon(rows)
    c, zero = [theta_p.rows[r][r] for r in range(m)], phi.ext_field.zero()
    rates = [sum((c_r * n for c_r, n in zip(c, row) if n), zero) for row in u[:k]]
    return _diagonal_split(phi, d, theta_p, [row[:k] for row in u_inv], rates)


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
    index = [f"{i:0{width}}" for i in range(m)]
    names = ["x" + r + s for r in index for s in index]
    e = PolyDiffField(base, names)
    # the monomial key of each x_j, built once for the m images it appears in
    keys = [((j, 1),) for j in range(m * m)]
    for r, row in enumerate(p.rows):
        # (index of x_l0, P[r][l]) for each nonzero P[r][l]
        support = [(l * m, c) for l, c in enumerate(row) if not c.is_zero()]
        for s in range(m):
            e.set_gen_derivative(r * m + s, e._make({keys[i + s]: c for i, c in support}))
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
