"""Reference implementations that the tests compare production code against.

Each one computes its answer by a different, slower route than the package:
dense matrix products in place of the sparse Phi, the m^2 basis elements in
place of the generators, the entry-wise formula for P with its explicit
w-correction in place of Phi(theta) + P_s, an explicit matrix for left
multiplication, a bounded-ansatz linear system for the ODE solver, and the
minor identity T_alpha^-1 B' T_beta = -A' for the relations of a derivation,
Q(w) arithmetic on ``Fraction`` coefficient vectors with the inverse by
the extended Euclidean algorithm against the integer Phi_m, on polynomials
over Q = Q(w_1), in place of the integer vectors and the Galois conjugates,
Q(w)(t) arithmetic that cancels one gcd of the unreduced result, the
quotient rule included, in place of Henrici's gcds of the operands' parts
and the polynomial shortcut of ``derive``, the determinant as the sum over
all permutations in place of the diagonal,
elimination and specialisation certificate of ``verify_gauge``, Kummer
arithmetic on the dense vector of all m coefficients, zeros included, with
every inverse by the extended Euclidean algorithm in place of the sparse
terms, the closed form for a monomial and the product of twists, one prime
of the degree at a time, for any other element, the derivative of a
differential polynomial summed one partial product at a time through the
coercing dense builder in place of one pass over the support, the product of
differential polynomials on dense exponent tuples of length n in place of
the merged keys of their nonzero exponents, a differential polynomial
printed by zipping all n names with each dense exponent tuple in place of
printing each key's pairs, and symbol
algebra and matrix arithmetic over every pair of entries, each product by
w^(jr) taken even when it is w^0 = 1, built through the coercing
dense builders in place of the support of the right factor and the trusted
constructors, the decomposition d = d_s + inner(theta) dividing by
w^i - 1, 1 - w^j and (1 - w^j) alpha on every call in place of the inverses
cached on the algebra, the minimal polynomial of a symbol element by one
solve per candidate degree in place of one kernel of 1, a, ..., a^m, an
expression evaluator that tokenizes one match
at a time and computes every subexpression in Q(w)(t) and every symbol
subexpression as a SymbolElem in place of the ladder Q(w) < Q(w)[t] < Q(w)(t)
and the sparse symbol sums of ``parser.py``, d_P(X) as delta^c(X) + XP - PX over
two matrix products in place of one pass over the entries, and the polynomial
gcd by Euclid's loop over the coefficient field run to a zero remainder in place
of the exit at the first nonzero constant one and, on Q[t], of the primitive
remainder sequence on integer vectors, each of its divisions (and each exact
division of Yun's oracle loop) by ``Poly``'s long division over the field in
place of the pseudo-division on integer vectors that Q[t] takes, and the relations of Phi as A^m, B^m, BA and w AB over
square-and-multiply matrix products in place of one identity per row on the
support of A and B, Yun's loop over the coefficient field run in full on every
input, with both exact divisions at every step, in place of the squarefree
shortcut and the integer loop on Q[t], power detection
checked by the quotient f / h^m in place of one polynomial identity, the
constants of d_s and the maximal-subfield witnesses by one quotient
alpha^-i beta^-j or value / nu^r decomposed per exponent in place of the
valuation vectors of one joint decomposition, the valuation vectors read
off one coprime basis by the part of each input that a basis element
divides in place of the vectors carried through the factor refinement, the
former depth-2 tower certificate (ramification of alpha against beta's
valuations, on multiplicities counted by repeated division), which the
lattice certificate must contain, the order of a subgroup of (Z/n)^N by
listing every combination of its generators in place of Euclid's row steps,
the Kummer derivation rule on m xi^(m-1) delta(xi) in place of m rate alpha =
delta(alpha), and the determinant certificate that multiplies out the
diagonal and eliminates every specialised matrix in place of testing each
diagonal entry, the commutator of a derivation as two symbol products in
place of one pass over the pairs of terms, the product of polynomials summed
into a list of zeros over every coefficient of the shorter factor in place of
its support, the row update of the elimination over the whole row in
place of the pivot row's support, the images delta(x_rs) = sum_l P[r][l] x_ls
of the generic splitting field summed one scaled generator at a time in place
of one pass over the support of row r of P, and the value of a Laurent
monomial at a point as a product of ``Fraction`` powers in place of an
integer numerator and denominator, the printed form of a rational
coefficient read off its ``Fraction`` in place of its integer numerator and
denominator, and the paper's gauge diag(g^(n t_r)) of the standard splitting field,
with its negative powers of g, in place of the gauge of P_s + lambda I with
the nonnegative exponents n (m - 1 - r), and the cofactors of two polynomials by
``poly_gcd`` and ``exact_div`` in place of the leading coefficients that
``poly_cancel`` reads off a pair of associates, and the Q-rank of elements of
k(xi) by Gaussian elimination over ``Fraction`` on their coordinates over one
common denominator in place of the integer rows of w^(-ri) and Euclid's row
steps, and each entry of a matrix product as the fold sum(a * b) over every
index, zero factors included, in place of the field's one pass over the
pairs of nonzero factors, and P = Phi(theta) + P_s as a sum of two matrices
in place of the one gather of Phi(theta) that P_s's diagonal seeds.
"""

import itertools
import operator
import re
from fractions import Fraction
from math import gcd, lcm

from diffsym.deriv import validate
from diffsym.errors import SelfCheckError
from diffsym.linalg import invert_matrix, kernel_basis, solve_affine
from diffsym.matdiff import DiffMatrix, _specialisation_points
from diffsym.parser import MAX_DEPTH, MAX_EXPONENT, MAX_POWER_BITS, ParseError, _wrap, scalar_to_str
from diffsym.scalars import CycloElem, CycloField, KummerElem, PolyDiffField, Poly, RatFunc
from diffsym.scalars.monomial import PolyDiffElem
from diffsym.scalars.ode import OdeSolution
from diffsym.scalars.polys import _long_division, poly_gcd, squarefree_decompose
from diffsym.scalars.powers import _prime_factors
from diffsym.split import IsoVerdict, t_r_values
from diffsym.symalg import SymbolElem


def matrix_powers(phi):
    """([A^0, ..., A^{m-1}], [B^0, ..., B^{m-1}]) from phi.a_mat and phi.b_mat."""
    m = phi.algebra.m
    return [phi.a_mat**i for i in range(m)], [phi.b_mat**j for j in range(m)]


def dense_phimap_relations(phi):
    """Raise AssertionError unless A^m = alpha I, B^m = beta I and BA = w AB, over whole matrices."""
    m = phi.algebra.m
    e = phi.ext_field
    alpha_i = DiffMatrix.identity(e, m).scale(e.coerce(phi.algebra.alpha))
    beta_i = DiffMatrix.identity(e, m).scale(e.coerce(phi.algebra.beta))
    if not phi.a_mat**m == alpha_i:
        raise AssertionError("A^m != alpha I")
    if not phi.b_mat**m == beta_i:
        raise AssertionError("B^m != beta I")
    omega = e.coerce(e.cyclo.omega())
    if not phi.b_mat * phi.a_mat == (phi.a_mat * phi.b_mat).scale(omega):
        raise AssertionError("BA != omega AB")


def dense_phi(phi, x, powers=None):
    """Reference Phi: the sum of c_ij A^i B^j over the dense matrix powers."""
    a_pows, b_pows = powers or matrix_powers(phi)
    x = phi.ext_algebra.coerce_elem(x)
    m = phi.algebra.m
    out = DiffMatrix.zero(phi.ext_field, m)
    for i in range(m):
        for j in range(m):
            c = x.grid[i][j]
            if not c.is_zero():
                out = out + (a_pows[i] * b_pows[j]).scale(c)
    return out


def full_basis_verdict(phi, d, p):
    """Reference isomorphism check on all m^2 basis elements, on xi and on t, via dense Phi."""
    powers = matrix_powers(phi)
    d_ext = d.extend(phi.ext_algebra)
    alg = phi.ext_algebra
    for i in range(alg.m):
        for j in range(alg.m):
            x = alg.monomial(i, j, phi.ext_field.one())
            if not dense_phi(phi, d_ext.apply(x), powers) == dense_apply_dP(p, dense_phi(phi, x, powers)):
                return IsoVerdict(False, (i, j))
    for name, c in (("xi", phi.ext_field.gen()), ("t", phi.algebra.field.gen())):
        x = alg.scalar(c)
        if not dense_phi(phi, d_ext.apply(x), powers) == dense_apply_dP(p, dense_phi(phi, x, powers)):
            return IsoVerdict(False, (name,))
    return IsoVerdict(True, None)


def dense_apply_dP(p, x):
    """d_P(X) = delta^c(X) + XP - PX over whole matrices: two products and two sums."""
    return x.derive() + x * p - p * x


def compute_w(phi):
    """w with d_Phi = d_s + inner(w) on A tensor k(xi)."""
    alg = phi.ext_algebra
    m = alg.m
    e = phi.ext_field
    dbeta = phi.algebra.beta.derive()
    grid = [[e.zero()] * m for _ in range(m)]
    if not dbeta.is_zero():
        xi = e.gen()
        w = e.cyclo.omega()
        denom_base = e.coerce(phi.algebra.alpha) * e.coerce(phi.algebra.beta) * m
        for i in range(1, m):
            grid[i][0] = e.coerce(dbeta) * xi ** (m - i) / (denom_base * (e.coerce(w**i) - e.one()))
    return alg.from_grid(grid)


def entrywise_P(theta, phi):
    """Entry-wise closed form of Phi(theta - w) from the theta coefficients.

    p_rs collects theta_{i,(r-s) mod m} * xi^i * w^{-ri}, with a beta factor
    above the diagonal and the w-correction
    -sum_{i>0} w^{-ri} delta(beta) / ((w^i - 1) m beta) on the diagonal.
    """
    m = phi.algebra.m
    e = phi.ext_field
    th = theta.grid
    xi = e.gen()
    w = e.cyclo.omega()
    beta = e.coerce(phi.algebra.beta)
    dbeta = e.coerce(phi.algebra.beta.derive())
    rows = []
    for r in range(m):
        row = []
        for s in range(m):
            j = (r - s) % m
            acc = e.zero()
            for i in range(m):
                if th[i][j].is_zero():
                    continue
                acc = acc + e.coerce(th[i][j]) * xi**i * e.coerce(w ** (((m - r) * i) % m))
            if r < s:
                acc = acc * beta
            if r == s and not dbeta.is_zero():
                for i in range(1, m):
                    acc = acc - e.coerce(w ** (((m - r) * i) % m)) * dbeta / (
                        (e.coerce(w**i) - e.one()) * beta * m
                    )
            row.append(acc)
        rows.append(row)
    return DiffMatrix(e, rows)


def summed_closed_form_P(theta, phi):
    """P = Phi(theta) + P_s as the sum of two matrices."""
    return phi.apply(theta) + phi.p_s


def det_expansion(matrix, ring):
    """Determinant by permutation expansion; works over rings without division.

    The permutations are walked depth-first over the rows, so each prefix
    product is formed once and shared by every permutation that extends it;
    a zero entry prunes its whole subtree.  Placing column c after the
    columns already used adds one inversion per used column greater than c,
    which gives the sign as the walk goes.
    """
    n = len(matrix)
    if n == 0:
        return ring.one()
    total = ring.zero()

    def expand(row, used, prefix, negative):
        nonlocal total
        for col in range(n):
            if col in used:
                continue
            entry = matrix[row][col]
            if entry.is_zero():
                continue
            product = entry if prefix is None else prefix * entry
            flip = sum(1 for c in used if c > col) % 2 == 1
            if row == n - 1:
                total = total - product if negative != flip else total + product
            else:
                expand(row + 1, used + (col,), product, negative != flip)

    expand(0, (), None, False)
    return total


def left_multiplication_matrix(a):
    """Matrix of x -> a*x in the basis u^i v^j."""
    alg = a.algebra
    cols = []
    for b in alg.basis():
        cols.append((a * b).to_vector())
    n = alg.m**2
    return [[cols[c][r] for c in range(n)] for r in range(n)]


def brute_force_ode_oracle(mu, g, degree_bound: int = 8) -> OdeSolution:
    """Bounded-ansatz oracle: x = N / den(g)^2 with deg N bounded.

    Cross-checks rational_ode_solve on small instances; the ansatz
    denominator and degree bound are deliberately generous and independent of
    the production solver's pole analysis.  The homogeneous part is the
    ansatz kernel, each solution with a monic numerator and one per line, in
    place of the solver's closed form.
    """
    field = g.parent
    mu = field.cyclo.coerce(mu)
    cyclo = field.cyclo
    den = g.den * g.den
    max_deg = den.degree + degree_bound
    lhs_of = []
    n_rows = max_deg + den.degree + 2
    d_deriv = den.derivative()
    for i in range(max_deg + 1):
        basis = Poly(cyclo, [cyclo.zero()] * i + [cyclo.one()])
        img = basis.derivative() * den - basis * d_deriv + basis * den * mu
        lhs_of.append([img.coeff(r) for r in range(n_rows)])
    matrix = [[lhs_of[c][r] for c in range(max_deg + 1)] for r in range(n_rows)]
    hom = []
    for v in kernel_basis(matrix, cyclo):
        x = field.from_poly(Poly(cyclo, v), den)
        if not x.is_zero():
            x = field.from_poly(x.num.monic(), x.den)
            if not any(_proportional(x, h) for h in hom):
                hom.append(x)
    rhs_rf = g * field.from_poly(den) ** 2
    particular = None
    if rhs_rf.den.degree == 0:
        target = [rhs_rf.num.coeff(r) for r in range(n_rows)]
        vec = solve_affine(matrix, target, cyclo)
        if vec is not None:
            particular = field.from_poly(Poly(cyclo, vec), den)
    return OdeSolution(particular, hom)


def _proportional(a: RatFunc, b: RatFunc) -> bool:
    """True when a = c b for a constant c, or both are zero."""
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    return (a / b).is_constant()


def _t_gamma(algebra, gamma):
    """The (m-1)x(m-1) twist matrix of the minor identity."""
    m = algebra.m
    field = algebra.field
    w = algebra._omega_pow
    rows = [[field.zero() for _ in range(m - 1)] for _ in range(m - 1)]
    rows[0][m - 2] = (field.one() - w[1]) / gamma
    for i in range(1, m - 1):
        rows[i][i - 1] = w[(i + 1) % m] - w[1]
    return rows


def _minor(grid, drop_row, drop_col):
    return [[grid[i][j] for j in range(len(grid)) if j != drop_col] for i in range(len(grid)) if i != drop_row]


def _mat_mul(x, y, field):
    return [
        [sum((x[i][l] * y[l][j] for l in range(len(y))), field.zero()) for j in range(len(y[0]))]
        for i in range(len(x))
    ]


def minor_identity_holds(algebra, du, dv):
    """T_alpha^-1 B' T_beta = -A', with A' = d(u) less row 1 and column 0, B' = d(v) less row 0 and column 1.

    Entry by entry it is REL1, REL2 at j >= 2, REL3 at i >= 2 and REL4 at
    i, j >= 2; the relations it leaves out involve only the entries that the
    A and B conditions pin down.
    """
    field = algebra.field
    a = algebra.coerce_elem(du).grid
    b = algebra.coerce_elem(dv).grid
    # the alpha twist acts on the row shift, hence the transpose
    t_alpha_inv = invert_matrix([list(r) for r in zip(*_t_gamma(algebra, algebra.alpha))], field)
    lhs = _mat_mul(_mat_mul(t_alpha_inv, _minor(b, 0, 1), field), _t_gamma(algebra, algebra.beta), field)
    a_minor = _minor(a, 1, 0)
    return all((x + y).is_zero() for lrow, arow in zip(lhs, a_minor) for x, y in zip(lrow, arow))


def fraction_fold_table(field):
    """x^(d+k) mod Phi_m for k = 0..d-2 (d = deg Phi_m), each as d Fractions."""
    phi = field.modulus
    d = len(phi) - 1
    row = tuple(Fraction(-c) for c in phi[:d])  # x^d = -(p_0 + ... + p_(d-1) x^(d-1))
    table = []
    for _ in range(d - 1):
        table.append(row)
        top = row[-1]
        row = tuple((row[i - 1] if i else Fraction(0)) + top * table[0][i] for i in range(d))
    return tuple(table)


def fraction_add(a, b):
    """Sum of two Q(w) elements given as Fraction coefficient vectors."""
    return tuple(x + y for x, y in zip(a, b))


def fraction_neg(a):
    return tuple(-x for x in a)


def fraction_mul(field, a, b):
    """Product of Fraction coefficient vectors: schoolbook convolution, folded mod Phi_m."""
    d = field.degree
    prod = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    out = prod[:d]
    for c, row in zip(prod[d:], fraction_fold_table(field)):
        for i, f in enumerate(row):
            out[i] += c * f
    return tuple(out)


def euclid_gcd(a, b):
    """Monic gcd by Euclid's loop over the coefficient field, run until the remainder is zero; zero for two zeros."""
    while not b.is_zero():
        a, b = b, _long_division(a, b)[1]
    return a.monic() if not a.is_zero() else a


def gcd_cofactors(a, b):
    """(a / g, b / g) for g = poly_gcd(a, b), each by exact_div: a remainder sequence and two divisions."""
    g = poly_gcd(a, b)
    return a.exact_div(g), b.exact_div(g)


def long_exact_div(a, b):
    """a / b by long division over the coefficient field; ValueError on a nonzero remainder."""
    q, r = _long_division(a, b)
    if not r.is_zero():
        raise ValueError("division is not exact")
    return q


def poly_extended_gcd(a, b):
    """(g, s, t) with s*a + t*b = g, g monic (or zero)."""
    field = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(field), Poly.zero(field)
    t0, t1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = field.one() / r0.leading_coeff()
    return r0.monic(), s0 * inv, t0 * inv


def euclid_inverse(field, a):
    """Inverse of a nonzero Fraction coefficient vector by the extended Euclidean algorithm over Q = Q(w_1)."""
    rationals = CycloField(1)
    g, s, _ = poly_extended_gcd(Poly(rationals, a), Poly(rationals, field.modulus))
    if g.degree != 0:
        raise ZeroDivisionError("not invertible mod Phi_m")
    # deg s < deg Phi_m, so s is already reduced
    return tuple(s.coeff(i).rational_value() for i in range(field.degree))


def canonical_add(x, y):
    """a/b + c/d as (a d + c b)/(b d), reduced by the canonicalising constructor."""
    return RatFunc(x.parent, x.num * y.den + y.num * x.den, x.den * y.den)


def canonical_mul(x, y):
    """(a/b)(c/d) as (a c)/(b d), reduced by the canonicalising constructor."""
    return RatFunc(x.parent, x.num * y.num, x.den * y.den)


def canonical_neg(x):
    return RatFunc(x.parent, -x.num, x.den)


def canonical_inv(x):
    return RatFunc(x.parent, x.den, x.num)


def canonical_derive(x):
    """(a/b)' = (a' b - a b')/b^2, reduced by the canonicalising constructor; 0 under the zero derivation."""
    if x.parent.is_zero_derivation:
        return x.parent.zero()
    return RatFunc(x.parent, x.num.derivative() * x.den - x.num * x.den.derivative(), x.den * x.den)


def kummer_from_coeffs(field, coeffs):
    """The element sum c_i xi^i of the dense vector (c_0, ..., c_{m-1}): each c_i coerced, the zeros dropped,
    built through the field's trusted ``_make``."""
    if len(coeffs) != field.m:
        raise ValueError("coefficient vector has the wrong length")
    terms = {i: c for i, c in enumerate(map(field.base.coerce, coeffs)) if not c.is_zero()}
    return field._make(terms)


def kummer_coeffs(x):
    """The dense vector (c_0, ..., c_{m-1}) of a Kummer element, zeros included."""
    zero = x.parent.base.zero()
    return tuple(x.terms.get(i, zero) for i in range(x.parent.m))


def dense_kummer_add(x, y):
    """x + y on the dense coefficient vectors, as a tuple of m base elements."""
    return tuple(a + b for a, b in zip(kummer_coeffs(x), kummer_coeffs(y)))


def dense_kummer_neg(x):
    return tuple(-a for a in kummer_coeffs(x))


def dense_kummer_mul(x, y):
    """x * y by the m^2 schoolbook products, each wrapped term times alpha on its own."""
    field = x.parent
    m = field.m
    out = [field.base.zero()] * m
    for i, a in enumerate(kummer_coeffs(x)):
        for j, b in enumerate(kummer_coeffs(y)):
            k = i + j
            term = a * b
            if k >= m:
                k -= m
                term = term * field.alpha
            out[k] = out[k] + term
    return tuple(out)


def dense_kummer_inv(x):
    """x^-1 mod z^m - alpha by the extended Euclidean algorithm, monomials included."""
    field = x.parent
    base = field.base
    modulus = Poly(base, [-field.alpha] + [base.zero()] * (field.m - 1) + [base.one()])
    g, s, _ = poly_extended_gcd(Poly(base, list(kummer_coeffs(x))), modulus)
    if g.degree != 0:
        raise ZeroDivisionError("not invertible mod z^m - alpha")
    return tuple(s.coeff(i) for i in range(field.m))


def dense_kummer_derive(x):
    """delta(sum c_i xi^i) = sum (delta(c_i) + i c_i rate) xi^i over all m slots."""
    rate = x.parent.gen_rate
    return tuple(c.derive() + c * rate * i for i, c in enumerate(kummer_coeffs(x)))


def dense_kummer_conjugate(x, j):
    field = x.parent
    w = field.cyclo.omega()
    return tuple(c * field.base.coerce(w ** ((i * j) % field.cyclo.m)) for i, c in enumerate(kummer_coeffs(x)))


def dense_exponents(field, key):
    """The dense exponent tuple (e_0, ..., e_{n-1}) of the PolyDiffElem monomial with this key."""
    exps = [0] * field.n
    for i, e in key:
        exps[i] = e
    return tuple(exps)


def polydiff_from_dense(field, terms):
    """The sum of c x^e over {e: c}, e a dense exponent tuple of length n: each c coerced, the zeros dropped,
    built through the field's trusted ``_make``."""
    out = {}
    for exps, c in terms.items():
        if len(exps) != field.n:
            raise ValueError(f"exponent tuple of length {len(exps)} for n = {field.n} variables")
        c = field.base.coerce(c)
        if not c.is_zero():
            out[tuple((i, e) for i, e in enumerate(exps) if e)] = c
    return field._make(out)


def dense_polydiff_str(x):
    """A PolyDiffElem printed term by term from its dense exponent tuple, zipped with all n names.

    Terms sorted by their dense exponent tuples; a unit coefficient is dropped.
    """
    field = x.parent
    parts = []
    terms = ((dense_exponents(field, key), c) for key, c in x.terms.items())
    for dense, c in sorted(terms, key=operator.itemgetter(0)):
        cs = _wrap(scalar_to_str(c))
        monos = [name if e == 1 else f"{name}^{e}" for name, e in zip(field.names, dense) if e]
        parts.append("*".join(monos if monos and cs == "1" else [cs] + monos))
    return " + ".join(parts) if parts else "0"


def polydiff_derive(x):
    """d(x) as the sum of d(c) x^e and every partial e_i c x^(e - 1_i) times d(x_i)."""
    parent = x.parent
    total = parent.zero()
    for key, c in x.terms.items():
        exps = dense_exponents(parent, key)
        mono = polydiff_from_dense(parent, {exps: parent.base.one()})
        total = total + mono.scale(c.derive())
        for i, e in enumerate(exps):
            if e == 0:
                continue
            lowered = list(exps)
            lowered[i] -= 1
            partial = polydiff_from_dense(parent, {tuple(lowered): c * e})
            total = total + partial * parent.gen_derivative(i)
    return total


def dense_polydiff_mul(x, y):
    """x * y by adding the dense exponent tuples of every pair of terms, built through ``polydiff_from_dense``."""
    parent = x.parent
    out = {}
    for k1, c1 in x.terms.items():
        e1 = dense_exponents(parent, k1)
        for k2, c2 in y.terms.items():
            e = tuple(a + b for a, b in zip(e1, dense_exponents(parent, k2)))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return polydiff_from_dense(parent, out)


def dense_symbol_mul(x, y):
    """x * y by the m^4 entry products, each times w^(jr), built through the coercing ``from_grid``."""
    alg = x.algebra
    m = alg.m
    out = [[alg.field.zero()] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            a = x.grid[i][j]
            if a.is_zero():
                continue
            for r in range(m):
                for s in range(m):
                    b = y.grid[r][s]
                    if b.is_zero():
                        continue
                    # v^j u^r = w^(jr) u^r v^j
                    c = a * b * alg._omega_pow[(j * r) % m]
                    ii, jj = i + r, j + s
                    if ii >= m:
                        ii -= m
                        c = c * alg.alpha
                    if jj >= m:
                        jj -= m
                        c = c * alg.beta
                    out[ii][jj] = out[ii][jj] + c
    return alg.from_grid(out)


def coercing_symbol_add(x, y):
    return x.algebra.from_grid([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(x.grid, y.grid)])


def coercing_symbol_scale(x, c):
    c = x.algebra.field.coerce(c)
    return x.algebra.from_grid([[a * c for a in row] for row in x.grid])


def coercing_matrix_mul(x, y):
    """x * y as the n^3 entry products summed from zero, built through the coercing constructor."""
    n = x.size
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = x.field.zero()
            for l in range(n):
                a = x.rows[i][l]
                b = y.rows[l][j]
                if a.is_zero() or b.is_zero():
                    continue
                acc = acc + a * b
            row.append(acc)
        out.append(row)
    return DiffMatrix(x.field, out)


def folded_matrix_entries(x, y):
    """The entries of x * y, each the fold sum(a * b) from the zero of x's field over every index."""
    n, zero = x.size, x.field.zero()
    return [[sum((x.rows[r][k] * y.rows[k][s] for k in range(n)), zero) for s in range(n)] for r in range(n)]


def coercing_matrix_add(x, y):
    return DiffMatrix(x.field, [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(x.rows, y.rows)])


def coercing_matrix_scale(x, c):
    c = x.field.coerce(c)
    return DiffMatrix(x.field, [[a * c for a in r] for r in x.rows])


def coercing_matrix_derive(x):
    return DiffMatrix(x.field, [[a.derive() for a in r] for r in x.rows])


def dividing_decompose(d):
    """theta with d = d_s + inner(theta), each entry divided by its w-gap (and alpha) on the spot."""
    alg = d.algebra
    m = alg.m
    verdict = validate(alg, d.du, d.dv)
    if not verdict.ok:
        raise ValueError(f"not a derivation: conditions {verdict.failing} fail")
    a = d.du.grid
    b = d.dv.grid
    w = alg._omega_pow
    one = alg.field.one()
    grid = [[alg.field.zero()] * m for _ in range(m)]
    for i in range(1, m):
        grid[i][0] = b[i][1] / (w[i] - one)
    for j in range(1, m):
        for i in range(m - 1):
            grid[i][j] = a[i + 1][j] / (one - w[j])
        grid[m - 1][j] = a[0][j] / ((one - w[j]) * alg.alpha)
    return alg.from_grid(grid)



def growing_minimal_polynomial(a):
    """Monic least-degree p with p(a) = 0: one solve per candidate degree d, a^d against 1, ..., a^(d-1)."""
    alg = a.algebra
    field = alg.field
    powers = [alg.one()]
    while True:
        vecs = [p.to_vector() for p in powers]
        target = (powers[-1] * a).to_vector()
        n = len(target)
        matrix = [[vecs[c][r] for c in range(len(vecs))] for r in range(n)]
        sol = solve_affine(matrix, target, field)
        if sol is not None:
            # a^d = sum sol_i a^i  =>  p = z^d - sum sol_i z^i
            coeffs = [-c for c in sol] + [field.one()]
            return Poly(field, coeffs)
        powers.append(powers[-1] * a)
        if len(powers) > alg.m**2 + 1:
            raise AssertionError("no linear dependence found below the dimension bound")


def span_of_powers_contains(x, gamma, d):
    """True iff x lies in span{1, gamma, ..., gamma^(d-1)}, by one solve against those d powers."""
    alg = x.algebra
    powers = [alg.one()]
    for _ in range(d - 1):
        powers.append(powers[-1] * gamma)
    vecs = [p.to_vector() for p in powers]
    matrix = [[v[r] for v in vecs] for r in range(alg.m**2)]
    sol = solve_affine(matrix, x.to_vector(), alg.field)
    return sol is not None

# -- the expression evaluator over the whole field ----------------------------

_ORACLE_TOKEN_RE = re.compile(r"(\d+)|([a-zA-Z][a-zA-Z0-9]*)|([-+*/^()])")
_ORACLE_SPACE_RE = re.compile(r"\s*")
_ORACLE_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _oracle_tokenize(src):
    """Tokens matched one at a time from the position after the whitespace."""
    tokens = []
    pos = _ORACLE_SPACE_RE.match(src).end()
    while pos < len(src):
        m = _ORACLE_TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        tokens.append(((None, "int", "name", "op")[m.lastindex], m.group(), pos))
        pos = _ORACLE_SPACE_RE.match(src, m.end()).end()
    tokens.append(("end", "", len(src)))
    return tokens


def _oracle_t_degree(x):
    if isinstance(x, RatFunc):
        return max(x.num.degree, x.den.degree)
    if isinstance(x, (KummerElem, PolyDiffElem)):
        parts = x.terms.values()
    elif isinstance(x, SymbolElem):
        parts = (c for row in x.grid for c in row)
    else:
        return 0
    return max((_oracle_t_degree(c) for c in parts), default=0)


def _oracle_bit_length(x):
    """Largest bit length among the integers of x's Q(w) coefficients over their common denominators."""
    if isinstance(x, CycloElem):
        den = lcm(*(q.denominator for q in x.coeffs))
        return max(abs(n).bit_length() for n in [den] + [q.numerator * (den // q.denominator) for q in x.coeffs])
    if isinstance(x, RatFunc):
        parts = list(x.num.coeffs) + list(x.den.coeffs)
    elif isinstance(x, (KummerElem, PolyDiffElem)):
        parts = x.terms.values()
    elif isinstance(x, SymbolElem):
        parts = (c for row in x.grid for c in row)
    else:
        return 0
    return max((_oracle_bit_length(c) for c in parts), default=0)


def _oracle_check_size(x, what, pos):
    """The parser's size bounds, read off x in the whole field."""
    if _oracle_t_degree(x) > MAX_EXPONENT:
        raise ParseError(f"{what} too large: t-degree must not exceed {MAX_EXPONENT}", pos)
    if _oracle_bit_length(x) > MAX_POWER_BITS:
        raise ParseError(f"{what} too large: coefficient bits must not exceed {MAX_POWER_BITS}", pos)


class _OracleParser:
    """Every subexpression in the context field itself: integers and names are
    coerced into it, and each operation is the field's own operator."""

    def __init__(self, src, context):
        self.tokens = _oracle_tokenize(src)
        self.i = 0
        self.depth = 0
        self.context = context

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def parse(self):
        value = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos, expected="end of input")
        _oracle_check_size(value, "expression", 0)
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op, pos = self.advance()
            b = self.term()
            # a sum of rational functions whose denominators' degrees add up past
            # the bound is bounded as a power is
            oversized = (isinstance(value, RatFunc) and isinstance(b, RatFunc)
                         and value.den.degree + b.den.degree > MAX_EXPONENT)
            value = self.binop(op, value, b)
            if oversized:
                _oracle_check_size(value, f"result of {op!r}", pos)
        return value

    def term(self):
        value = self.signed_factor()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            _, op, pos = self.advance()
            value = self.binop(op, value, self.signed_factor())
            # every product and quotient is bounded as a power is
            _oracle_check_size(value, f"result of {op!r}", pos)
        return value

    def signed_factor(self):
        negate = self.peek()[:2] == ("op", "-")
        if negate:
            self.advance()
        value = self.factor()
        return -value if negate else value

    def binop(self, op, a, b):
        return _ORACLE_BINOPS[op](a, b)

    def factor(self):
        value = self.atom()
        e = self.exponent(value)
        return value if e == 1 else value**e

    def exponent(self, base, period=1):
        kind, val, pos = self.peek()
        if kind != "op" or val != "^":
            return 1
        self.advance()
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            sign = -1
        kind, val, pos = self.peek()
        if kind != "int":
            raise ParseError(f"unexpected token {val!r}", pos, expected="integer exponent")
        self.advance()
        e = sign * int(val)
        if abs(e) > MAX_EXPONENT or _oracle_t_degree(base) * abs(e // period) > MAX_EXPONENT:
            raise ParseError(
                f"exponent {val} too large: |e| and t-degree * |e| must not exceed {MAX_EXPONENT}", pos)
        if _oracle_bit_length(base) * abs(e // period) > MAX_POWER_BITS:
            raise ParseError(
                f"exponent {val} too large: coefficient bits * |e| must not exceed {MAX_POWER_BITS}", pos)
        return e

    def atom(self):
        kind, val, pos = self.peek()
        if kind == "int":
            self.advance()
            return self.context.coerce(Fraction(int(val)))
        if kind == "name":
            self.advance()
            value = self.context.generators().get(val)
            if value is None:
                raise ParseError(f"undefined symbol {val!r} for this context", pos)
            return value
        if kind == "op" and val == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
            self.advance()
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            kind, val, pos = self.peek()
            if kind != "op" or val != ")":
                raise ParseError(f"unexpected token {val!r}", pos, expected="')'")
            self.advance()
            return value
        raise ParseError(f"unexpected token {val!r}", pos, expected="atom")


class _OracleSymbolParser(_OracleParser):
    """Scalars in the coefficient field, lifted into the algebra where they meet
    a SymbolElem; every symbol operation is SymbolElem's own."""

    def __init__(self, src, algebra):
        super().__init__(src, algebra.field)
        self.algebra = algebra

    def binop(self, op, a, b):
        a_symbol, b_symbol = isinstance(a, SymbolElem), isinstance(b, SymbolElem)
        if a_symbol != b_symbol:
            if op == "*":
                return a.scale(b) if a_symbol else b.scale(a)
            if a_symbol:
                b = self.algebra.scalar(b)
            else:
                a = self.algebra.scalar(a)
        return super().binop(op, a, b)

    def factor(self):
        kind, name, _ = self.peek()
        if kind == "name" and name in ("u", "v"):
            self.advance()
            alg = self.algebra
            power, radicand = (alg.u, alg.alpha) if name == "u" else (alg.v, alg.beta)
            return power(self.exponent(radicand, alg.m))
        return super().factor()


def fraction_scalar_str(x):
    """An element of Q(w), or of Q(w)(t) with rational coefficients, printed from the ``Fraction`` of
    each coefficient in place of its integer numerator and denominator."""
    def term(q, mono):
        mag = abs(q)
        body = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        if mono is not None and mag != 1:
            body = f"{body}*{mono}"
        return ("-" if q < 0 else "+", mono if mono is not None and mag == 1 else body)

    def signed(terms):
        s = "".join(f" {sign} {body}" for sign, body in terms)
        return "0" if not s else (f"-{s[3:]}" if s[1] == "-" else s[3:])

    def mono(var, i):
        return None if i == 0 else var if i == 1 else f"{var}^{i}"

    def poly(p, var):
        return signed(term(p.coeffs[i].rational_value(), mono(var, i))
                      for i in reversed(range(len(p.coeffs))) if not p.coeffs[i].is_zero())

    if isinstance(x, CycloElem):
        q = x.coeffs
        return signed(term(q[i], mono("w", i)) for i in reversed(range(len(q))) if q[i])
    num = poly(x.num, x.parent.var)
    return num if x.den.degree == 0 else f"{_wrap(num)}/{_wrap(poly(x.den, x.parent.var))}"


def field_parse_scalar(src, context):
    """parse_scalar with every subexpression evaluated in the context field."""
    return _OracleParser(src, context).parse()


def symbol_elem_parse_symbol(src, algebra):
    """parse_symbol with every symbol subexpression a SymbolElem."""
    value = _OracleSymbolParser(src, algebra).parse()
    return value if isinstance(value, SymbolElem) else algebra.scalar(value)


def yun_full_loop(p):
    """Yun's squarefree decomposition over the coefficient field, gcds by ``euclid_gcd`` and exact divisions
    by ``long_exact_div``, the loop run on every input with both exact divisions at every step."""
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    p = p.monic()
    out = []
    if p.degree == 0:
        return out
    dp = p.derivative()
    g = euclid_gcd(p, dp)
    c = long_exact_div(p, g)
    d = long_exact_div(dp, g) - c.derivative()
    i = 1
    while c.degree > 0:
        q = euclid_gcd(c, d)
        if q.degree > 0:
            out.append((q, i))
        c = long_exact_div(c, q)
        d = long_exact_div(d, q) - c.derivative()
        i += 1
    return out


def quotient_mth_power(f, m):
    """(c, h) with f = c h^m, h with monic numerator and denominator, or None; c read off the quotient f / h^m."""
    field = f.parent
    one = Poly.one(field.cyclo)
    parts = {"num": one, "den": one}
    for target, poly in (("num", f.num), ("den", f.den)):
        if poly.degree == 0:
            continue
        for q, j in yun_full_loop(poly):
            if j % m != 0:
                return None
            parts[target] = parts[target] * q ** (j // m)
    h = field.from_poly(parts["num"], parts["den"])
    c = f / h**m
    if not c.is_constant():
        raise SelfCheckError("power detection produced a non-constant cofactor")
    return c.constant_value(), h


def quotient_constants_standard(algebra):
    """[(i, j, c, h)] for every (i, j) != (0, 0) with alpha^-i beta^-j = c h^m, one quotient decomposed per pair."""
    m = algebra.m
    out = []
    for i in range(m):
        for j in range(m):
            if (i, j) != (0, 0):
                res = quotient_mth_power(algebra.alpha ** (-i) * algebra.beta ** (-j), m)
                if res is not None:
                    out.append((i, j, *res))
    return out


def quotient_maximal_witnesses(algebra, nu):
    """(alpha witness, beta witness), each the first (r, c, h) with value / nu^r = c h^m, or ValueError."""
    m = algebra.m
    for name, value in (("alpha", algebra.alpha), ("beta", algebra.beta)):
        if quotient_mth_power(value, m) is not None:
            raise ValueError(f"hypothesis violation: {name} is an m-th power up to constant")

    def search(value):
        for r in range(1, m):
            res = quotient_mth_power(value / nu**r, m)
            if res is not None:
                return (r, *res)
        return None

    return search(algebra.alpha), search(algebra.beta)


def coprime_basis(polys):
    """GCD-free basis: pairwise coprime monic polynomials generating the input.

    Every input polynomial is (up to a constant) a product of powers of basis
    elements.  Degree-0 inputs are dropped.
    """
    basis = []
    stack = [q.monic() for q in polys if q.degree > 0]
    while stack:
        p = stack.pop()
        if p.degree <= 0:
            continue
        for b in basis:
            g = poly_gcd(p, b)
            if g.degree > 0:
                basis.remove(b)
                stack.extend([g, b.exact_div(g), p.exact_div(g)])
                break
        else:
            basis.append(p)
    return basis


def coprime_valuations(*fs):
    """``valuations`` by one ``coprime_basis`` over all the squarefree parts, v_b read off the one part of
    each f that b divides."""
    parts = [[(q, sign * j) for poly, sign in ((f.num, 1), (f.den, -1)) if poly.degree > 0
              for q, j in squarefree_decompose(poly)] for f in fs]
    basis = coprime_basis([q for f_parts in parts for q, _ in f_parts])
    vectors = [[next((j for q, j in f_parts if (q % b).is_zero()), 0) for b in basis] for f_parts in parts]
    return basis, vectors


def multiplicity(p, q):
    """Largest e with q^e | p, by repeated division (p nonzero, deg q >= 1)."""
    e = 0
    while True:
        quo, rem = divmod(p, q)
        if not rem.is_zero():
            return e
        p = quo
        e += 1


def dividing_power_free_over_kummer(alpha, m, beta, big_m):
    """The former certificate of z^M - beta over k(alpha^(1/m)), True iff certified: for each prime p | M, and 4
    when 4 | M, some place (a basis block, or infinity) where p does not divide the ramification index
    m / gcd(m, v(alpha)) times v(beta), with v_b(f) = multiplicity(f.num, b) - multiplicity(f.den, b)."""
    parts = [q for f in (alpha, beta) for poly in (f.num, f.den) for q, _ in yun_full_loop(poly)]
    basis = coprime_basis(parts)

    def vals(f):
        return [multiplicity(f.num, b) - multiplicity(f.den, b) for b in basis] + [f.den.degree - f.num.degree]

    ram = [m // gcd(m, v) for v in vals(alpha)]
    vb = vals(beta)
    moduli = _prime_factors(big_m) + ([4] if big_m % 4 == 0 else [])
    return all(any((e * v) % p for e, v in zip(ram, vb)) for p in moduli)


def enumerated_subgroup_order(rows, n):
    """The order of the subgroup of (Z/n)^N that the integer rows generate, by listing every sum
    c_1 r_1 + ... + c_k r_k with 0 <= c_i < n."""
    width = len(rows[0]) if rows else 0
    return len({tuple(sum(c * row[j] for c, row in zip(cs, rows)) % n for j in range(width))
                for cs in itertools.product(range(n), repeat=len(rows))})


def kummer_rule_by_power(field, rate):
    """Whether m xi^(m-1) delta(xi) = delta(alpha) in the field, with delta(xi) = rate xi, xi^(m-1) built in the tower."""
    xi = field.gen()
    lhs = xi ** (field.m - 1) * (xi * field.coerce(rate)) * field.m
    return lhs == field.coerce(field.alpha.derive())


def fraction_specialise(x, point, base):
    """The value of a Laurent polynomial at a point, each monomial a product of ``Fraction`` powers."""
    acc = base.zero()
    for key, c in x.terms.items():
        value = Fraction(1)
        for i, e in key:
            value *= Fraction(point[i]) ** e
        if value:
            acc = acc + (c if value == 1 else c * base.coerce(value))
    return acc


def multiplied_det_certificate(f):
    """det_certificate with a diagonal det multiplied out, the points specialised through ``Fraction``
    powers and every specialised matrix eliminated."""
    n = f.size
    rows = f.rows
    if all(rows[r][c].is_zero() for r in range(n) for c in range(n) if r != c):
        product = f.field.one()
        for r in range(n):
            product = product * rows[r][r]
        return not product.is_zero(), "diagonal", None
    if not isinstance(f.field, PolyDiffField):
        return not kernel_basis(rows, f.field), "elimination", None
    base = f.field.base
    for index, point in _specialisation_points(f):
        if not kernel_basis([[fraction_specialise(x, point, base) for x in row] for row in rows], base):
            return True, "specialisation", index
    return None, "specialisation", None


def two_product_apply(d, x):
    """d(x) as d_s(x) + x theta - theta x, the commutator by two symbol products."""
    alg = d.algebra
    x = alg.coerce_elem(x)
    grid = [list(row) for row in alg.zero_elem().grid]
    if d.includes_ds:
        ru, rv = alg.standard_rates
        for (i, j), c in x.terms.items():
            grid[i][j] = c.derive() + c * (ru * i + rv * j)
    return alg.from_grid(grid) + x * d.theta - d.theta * x


def dense_poly_mul(p, q):
    """p * q summed into a list of zeros, every product of a nonzero coefficient of the longer factor taken."""
    field = p.field
    a, b = p.coeffs, q.coeffs
    if len(a) < len(b):
        a, b = b, a
    if len(b) <= 1:
        return Poly(field, [x * b[0] for x in a] if b else [])
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return Poly(field, out)


def dense_rref(rows, field, width):
    """Reduced row echelon form in place, each row update a - f * b over the whole row; the pivot columns."""
    pivots = []
    r = 0
    for c in range(width):
        pivot = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.one() / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def summed_generic_images(p, e):
    """delta(x_rs) = sum_l P[r][l] x_ls in split_generic's ring e, in the order of x_rs: each image
    summed one scaled generator at a time."""
    m = p.size
    images = []
    for r in range(m):
        for s in range(m):
            image = e.zero()
            for l in range(m):
                if not p.rows[r][l].is_zero():
                    image = image + e.gen(l * m + s).scale(p.rows[r][l])
            images.append(image)
    return images


def paper_standard_gauge(e, m):
    """The paper's F = diag(g^(n t_r)), t_r = (m - 1)/2 - r, over the top field e of a standard splitting.

    g is e's generator, of degree n m over k(xi); a field with no g (a constant
    beta) gives I. Half of the exponents are negative, each an inverse in e.
    """
    if e.gen_name not in ("eta", "zeta"):
        return DiffMatrix.identity(e, m)
    g, n = e.gen(), e.m // m
    return DiffMatrix.diagonal(e, [g ** int(n * t) for t in t_r_values(m)])


def rate_coordinates(rates):
    """One row of Q-coordinates per element of k(xi), k = Q(w)(t), a column per xi^i t^j w^l.

    Every element is multiplied by the product D of all the denominators of
    its xi-coefficients; a common nonzero factor keeps the Q-linear
    relations, and each coefficient of D c is then a polynomial in t.
    """
    coeffs = [f for c in rates for f in c.terms.values()]
    if not coeffs:
        return [[] for _ in rates]
    field = coeffs[0].parent
    one = Poly.one(field.cyclo)
    d = field.one()
    for f in coeffs:
        d = d * RatFunc(field, f.den, one)
    rows = []
    for c in rates:
        row = {}
        for i, f in c.terms.items():
            g = f * d
            assert g.den.degree == 0  # and monic, so 1
            for j, a in enumerate(g.num.coeffs):
                for l, q in enumerate(a.coeffs):
                    row[i, j, l] = q
        rows.append(row)
    keys = sorted(set().union(*rows))
    return [[row.get(key, Fraction(0)) for key in keys] for row in rows]


def rational_rank(rows):
    """The rank of a matrix of rationals by Gaussian elimination over ``Fraction``."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            q = rows[i][j] / rows[rank][j]
            rows[i] = [x - q * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank
