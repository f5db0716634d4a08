"""Matrix differential algebras (M_m(E), d_P) and the corner-matrix constants."""

from dataclasses import dataclass

import pytest

import diffsym.matdiff
from diffsym.matdiff import (
    DiffMatrix,
    _prop44_shape,
    _specialise,
    apply_dP,
    prop44_constants,
    prop44_matrix,
    verify_gauge,
)
from diffsym.scalars import CycloField, KummerField, PolyDiffField, RatFuncField, mth_power_up_to_constant
from diffsym.split import PhiMap, xi_extension
from diffsym.symalg import SymbolAlgebra
from oracles import (
    coercing_matrix_mul,
    dense_apply_dP,
    det_expansion,
    folded_matrix_entries,
    fraction_specialise,
    multiplied_det_certificate,
    polydiff_from_dense,
)

_det_certificate = diffsym.matdiff.det_certificate


def det_certificate(f):
    """The package's certificate, required to give the (verdict, method, point) of the oracle
    that specialises through Fraction powers and eliminates every specialised matrix."""
    got = _det_certificate(f)
    assert got == multiplied_det_certificate(f)
    return got


@pytest.fixture(autouse=True)
def every_certificate_agrees_with_the_fraction_route(monkeypatch):
    """verify_gauge's certificates are checked too, so every matrix of this module is."""
    monkeypatch.setattr(diffsym.matdiff, "det_certificate", det_certificate)


@pytest.fixture
def k():
    return RatFuncField(CycloField(2), "t")


def test_matrix_arithmetic(k):
    t = k.gen()
    a = DiffMatrix(k, [[t, k.one()], [k.zero(), t]])
    b = DiffMatrix(k, [[k.one(), k.zero()], [t, k.one()]])
    assert (a * b) + (a * b.scale(-1)) == DiffMatrix.zero(k, 2)
    assert a * DiffMatrix.identity(k, 2) == a
    assert (a**3) == a * a * a
    assert det_expansion(a.rows, k) == t * t
    assert a.trace() == t + t


def test_matrix_negative_power_raises(k):
    # 1x1 and zero, so a power loop that never ends would allocate nothing
    with pytest.raises(ValueError):
        DiffMatrix.zero(k, 1) ** -1


def test_derive_is_leibniz_on_products(k):
    t = k.gen()
    a = DiffMatrix(k, [[t, t * t], [k.one(), t]])
    b = DiffMatrix(k, [[t + 1, k.zero()], [t, k.one()]])
    assert (a * b).derive() == a.derive() * b + a * b.derive()


def test_derive_passes_zero_entries_through():
    """Entry-wise derive, on matrices whose zero entries are skipped, over k, k(xi) and a polynomial ring."""
    k = RatFuncField(CycloField(3), "t")
    t = k.gen()
    xi_field = KummerField(k, t, 3, "xi")
    xi = xi_field.gen()
    ring = PolyDiffField(k, ["x0", "x1"])
    x0, x1 = ring.gen(0), ring.gen(1)
    ring.set_gen_derivative(0, x1.scale(t))
    ring.set_gen_derivative(1, x0 + x1)
    for field, a, b in ((k, t, 1 / (t + 1)), (xi_field, xi, xi * xi + t), (ring, x0 * x1, x1.scale(t))):
        z = field.zero()
        for rows in ([[z, z], [z, z]], [[a, z], [z, b]], [[z, a, z], [b, z, field.one()], [z, z, a * b]]):
            mat = DiffMatrix(field, rows)
            assert mat.derive().rows == tuple(tuple(x.derive() for x in r) for r in mat.rows)


def test_apply_dP_is_a_derivation(k):
    t = k.gen()
    p = DiffMatrix(k, [[k.zero(), t], [k.one(), k.zero()]])
    a = DiffMatrix(k, [[t, k.one()], [t * t, k.zero()]])
    b = DiffMatrix(k, [[k.one(), t], [k.zero(), t]])
    assert apply_dP(p, a * b) == a * apply_dP(p, b) + apply_dP(p, a) * b


def _restrict(x, k):
    """An element of k(xi) without xi terms, as the element of k it is."""
    assert x.terms.keys() <= {0}
    return x.terms.get(0, k.zero())


def _dp_entry(field, rng):
    """A small nonzero random entry: a polynomial in t, plus xi or a monomial in the generators above k."""
    k = field if isinstance(field, RatFuncField) else field.base if isinstance(field, KummerField) else field.base.base
    c = k.coerce(rng.choice((-3, -2, -1, 1, 2, 3))) + k.gen() * rng.randint(-2, 2)
    if field is k:
        return c
    x = field.coerce(c)
    if isinstance(field, KummerField):
        return x + field.gen() * rng.randint(-1, 1)
    return x + field.gen(rng.randrange(field.n)) * field.coerce(field.base.gen() * rng.randint(-1, 1))


def _dp_fields(m, rng):
    """k = Q(w)(t), k(xi) with xi^m = t, and a differential polynomial ring over k(xi), with Phi."""
    k = RatFuncField(CycloField(m), "t")
    t = k.gen()
    alg = SymbolAlgebra(k, t, t + 1, m)
    e = xi_extension(alg)
    ring = PolyDiffField(e, ["x0", "x1"])
    ring.set_gen_derivative(0, ring.gen(1) * ring.coerce(t))
    ring.set_gen_derivative(1, ring.gen(0) + ring.gen(1) * ring.coerce(e.gen()))
    return alg, PhiMap(alg, e), {"k": k, "k(xi)": e, "ring": ring}


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_apply_dP_agrees_with_the_dense_oracle(m, rng):
    """P = 0, P_s, a random diagonal, diagonal plus corner and dense Phi(theta) + P_s,
    against X = Phi(u), Phi(v), 0 and random matrices, over k, k(xi) and a polynomial ring."""
    alg, phi, fields = _dp_fields(m, rng)
    k, e = fields["k"], fields["k(xi)"]
    p_s = phi.p_s
    # theta in k[v] with every v^j has a dense Phi(theta) over k; with u terms too, over k(xi)
    theta_v = sum((alg.v(j).scale(rng.randint(1, 3)) for j in range(m)), alg.zero_elem())
    theta = theta_v + alg.u().scale(k.gen()) + alg.monomial(m - 1, 1, rng.randint(1, 3))
    corner = prop44_matrix(k, list(range(m)), k.gen() + rng.randint(1, 3))
    over_xi = {
        "P": [p_s, phi.apply(theta) + p_s],
        "X": [phi.apply(alg.u()), phi.apply(alg.v())],
    }
    over_k = {
        "P": [DiffMatrix(k, [[_restrict(a, k) for a in r] for r in mat.rows]) for mat in (p_s, phi.apply(theta_v) + p_s)],
        "X": [DiffMatrix(k, [[_restrict(a, k) for a in r] for r in phi.apply(alg.v()).rows])],
    }
    shapes = {"dense P": 0, "dense X": 0}
    for name, field in fields.items():
        given = over_k if name == "k" else {key: [mat.coerce_to(field) for mat in mats] for key, mats in over_xi.items()}
        assert all(given["P"][0].rows[r][c].is_zero() for r in range(m) for c in range(m) if r != c)
        ps = [DiffMatrix.zero(field, m), DiffMatrix.diagonal(field, [_dp_entry(field, rng) for _ in range(m)])]
        ps += given["P"] + [corner.coerce_to(field)]
        xs = given["X"] + [DiffMatrix.zero(field, m)]
        xs += [DiffMatrix(field, [[_dp_entry(field, rng) for _ in range(m)] for _ in range(m)])]
        sparse = [[field.zero()] * m for _ in range(m)]
        for _ in range(m):
            sparse[rng.randrange(m)][rng.randrange(m)] = _dp_entry(field, rng)
        xs.append(DiffMatrix(field, sparse))
        for p in ps:
            shapes["dense P"] += all(not a.is_zero() for r in p.rows for a in r)
            for x in xs:
                assert apply_dP(p, x) == dense_apply_dP(p, x), (name, p, x)
        shapes["dense X"] += sum(all(not a.is_zero() for r in x.rows for a in r) for x in xs)
    assert min(shapes.values()) >= 3


def test_apply_dP_of_a_diagonal_P_takes_no_matrix_product(monkeypatch):
    """d_{P_s}(Phi(v)) at m = 16: one product per off-diagonal entry of Phi(v), where XP - PX took two matrix products."""
    m = 16
    k = RatFuncField(CycloField(m), "t")
    t = k.gen()
    alg = SymbolAlgebra(k, t, t + 1, m)
    phi = PhiMap(alg, xi_extension(alg))
    p, x = phi.p_s, phi.apply(alg.v())
    want = dense_apply_dP(p, x)
    calls = []
    product = DiffMatrix.__mul__
    monkeypatch.setattr(DiffMatrix, "__mul__", lambda *args: calls.append(args) or product(*args))
    assert apply_dP(p, x) == want
    assert calls == []


def test_verify_gauge_pass_and_fail(k):
    t = k.gen()
    # F = diag(t, 1) solves delta(F) = PF for P = diag(1/t, 0)
    p = DiffMatrix.diagonal(k, [k.one() / t, k.zero()])
    f = DiffMatrix.diagonal(k, [t, k.one()])
    v = verify_gauge(p, f)
    assert v.ok and v.det_nonzero and v.failing_entry is None
    bad = verify_gauge(p, DiffMatrix.diagonal(k, [t, t]))
    assert not bad.ok
    assert bad.failing_entry == (1, 1)
    singular = verify_gauge(p, DiffMatrix(k, [[t, t], [t, t]]))
    assert not singular.det_nonzero and not singular.ok
    assert singular.det_nonzero is False and singular.det_method == "elimination"
    assert (v.det_method, v.det_point) == ("diagonal", None)


def test_prop44_requires_distinct_constants(k):
    with pytest.raises(ValueError):
        prop44_matrix(k, [1, 1], k.gen())


@pytest.mark.parametrize("m", [2, 3, 4])
def test_corner_pole_dimension(m):
    k = RatFuncField(CycloField(m), "t")
    p = prop44_matrix(k, list(range(m)), k.one() / k.gen())
    basis = prop44_constants(p)
    assert len(basis) == m - 1
    for x in basis:
        assert apply_dP(p, x).is_zero()


@pytest.mark.parametrize("m", [2, 3])
def test_solvable_corner_dimension(m):
    # f = t admits a rational corner solution, so the dimension is m
    k = RatFuncField(CycloField(m), "t")
    p = prop44_matrix(k, list(range(m)), k.gen())
    basis = prop44_constants(p)
    assert len(basis) == m


# The no-cyclic-subfield argument runs as a test harness over
# caller-supplied candidates X; `split maximal` (maximal_subfield_necessary)
# is the package's maximal-subfield check.


@dataclass
class RefutationReport:
    applies: bool
    refuted: bool
    reason: str
    details: list

    def to_json(self):
        return {
            "applies": self.applies,
            "refuted": self.refuted,
            "reason": self.reason,
            "details": list(self.details),
        }


def no_cyclic_subfield_witness(p, x, nu):
    """Run the contradiction chain showing k(X), X^m = nu, is not d_P-stable.

    A test harness over caller-supplied candidates, not a decision procedure
    over all cyclic subfields.
    """
    field = p.field
    details = []
    try:
        lambdas, f = _prop44_shape(p)
    except ValueError as exc:
        return RefutationReport(False, False, f"hypothesis failure: {exc}", details)
    if f.is_zero():
        return RefutationReport(False, False, "hypothesis failure: corner entry f is zero", details)
    m = p.size
    nu = field.coerce(nu)
    power = mth_power_up_to_constant(nu, m)
    if power is not None:
        return RefutationReport(False, False, "precondition violation: nu is an m-th power up to constant", details)
    xm = x**m
    nu_identity = DiffMatrix.identity(field, m).scale(nu)
    if not xm == nu_identity:
        return RefutationReport(True, True, "candidate rejected: X^m != nu*I", details)
    mu = nu.derive() / (nu * m)
    residual = apply_dP(p, x) - x.scale(mu)
    if not residual.is_zero():
        for r in range(m):
            for c in range(m):
                if not residual.rows[r][c].is_zero():
                    details.append(f"d_P(X) != (delta(nu)/(m nu)) X at entry ({r},{c})")
                    break
        return RefutationReport(True, True, "d_P does not restrict to the derivation of k(X)", details)
    # stability holds, so the degree argument forces the off-diagonal to
    # vanish and the diagonal entries to be m-th roots of nu
    for r in range(m):
        for c in range(m):
            if r != c and (r, c) != (0, m - 1) and not x.rows[r][c].is_zero():
                details.append(f"degree argument violated at entry ({r},{c})")
                return RefutationReport(True, True, "stable candidate contradicts the degree argument", details)
    for r in range(m):
        if not x.rows[r][r] ** m == nu:
            details.append(f"diagonal entry ({r},{r}) is not an m-th root of nu")
            return RefutationReport(True, True, "stable candidate fails the diagonal power identity", details)
    details.append("diagonal entries exhibit nu as an m-th power in k, contradicting the precondition")
    return RefutationReport(True, True, "nu would be an m-th power", details)


def test_refutation_chain(k):
    t = k.gen()
    p = prop44_matrix(k, [0, 1], k.one() / t)
    nu = t
    # stable-looking candidate with X^2 != nu I
    x = DiffMatrix(k, [[t, k.zero()], [k.zero(), t]])
    rep = no_cyclic_subfield_witness(p, x, nu)
    assert rep.applies and rep.refuted
    assert rep.to_json() == {
        "applies": True, "refuted": True, "reason": "candidate rejected: X^m != nu*I", "details": [],
    }
    # nu an m-th power up to constant: hypothesis fails
    rep = no_cyclic_subfield_witness(p, x, t * t * 4)
    assert not rep.applies
    # corner f = 0: outside the family
    p0 = DiffMatrix.diagonal(k, [k.zero(), k.one()])
    rep = no_cyclic_subfield_witness(p0, x, nu)
    assert not rep.applies


def test_refutation_rejects_unstable_root(k):
    t = k.gen()
    p = prop44_matrix(k, [0, 1], k.one() / t)
    # X with X^2 = t I but d_P(X) != (delta(t)/2t) X
    x = DiffMatrix(k, [[k.zero(), t], [k.one(), k.zero()]])
    rep = no_cyclic_subfield_witness(p, x, t)
    assert rep.applies and rep.refuted
    assert "derivation" in rep.reason or rep.details


def _certificate_rings():
    k = RatFuncField(CycloField(3), "t")
    xi_field = KummerField(k, k.gen(), 3, "xi")
    return {"Q(w)(t)": k, "Q(w)(t)(xi)": xi_field, "Q(w)(t)[x0, x1, x2]": PolyDiffField(k, ["x0", "x1", "x2"])}


def _certificate_entry(ring, rng):
    """A small random element: over the polynomial ring, up to two Laurent terms."""
    if not isinstance(ring, PolyDiffField):
        return ring.coerce(rng.randint(-3, 3)) + ring.gen() * rng.randint(-2, 2)
    x = ring.zero()
    for _ in range(rng.randint(0, 2)):
        exps = tuple(rng.choice((0, 0, 1, 1, 2, -1)) for _ in range(ring.n))
        c = ring.base.coerce(rng.randint(-3, 3)) + ring.base.gen() * rng.randint(-1, 1)
        x = x + ring.coerce(c) * _monomial(ring, exps)
    return x


def _monomial(ring, exps):
    x = ring.one()
    for i, e in enumerate(exps):
        x = x * ring.gen(i) ** e
    return x


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("ring_name", ["Q(w)(t)", "Q(w)(t)(xi)", "Q(w)(t)[x0, x1, x2]"])
def test_det_certificate_agrees_with_the_expansion(ring_name, n, rng):
    ring = _certificate_rings()[ring_name]
    over_field = not isinstance(ring, PolyDiffField)
    singular = 0
    for trial in range(6):
        rows = [[_certificate_entry(ring, rng) for _ in range(n)] for _ in range(n)]
        if trial % 2 == 1:
            # the last row is c * (first row) plus the middle row, or zero at n = 1
            c = ring.coerce(rng.randint(1, 3))
            rows[-1] = [ring.zero()] if n == 1 else [c * a + b for a, b in zip(rows[0], rows[(n - 1) // 2])]
        f = DiffMatrix(ring, rows)
        nonzero = not det_expansion(f.rows, ring).is_zero()
        verdict, method, point = det_certificate(f)
        diagonal = all(rows[r][c].is_zero() for r in range(n) for c in range(n) if r != c)
        if diagonal:
            assert (verdict, method, point) == (nonzero, "diagonal", None)
        elif over_field:
            assert (verdict, method, point) == (nonzero, "elimination", None)
        else:
            # a zero specialisation proves nothing: a singular F is undecided, never False
            assert method == "specialisation"
            assert verdict is (True if nonzero else None)
            assert (point is None) == (verdict is None)
        singular += not nonzero
    assert singular >= 3


def test_equal_indeterminate_columns_are_undecided_and_fail_the_gauge():
    k = RatFuncField(CycloField(2), "t")
    e = PolyDiffField(k, ["x0", "x1"])
    for i in range(2):
        e.set_gen_derivative(i, e.zero())
    x0, x1 = e.gen(0), e.gen(1)
    f = DiffMatrix(e, [[x0, x0], [x1, x1]])
    v = verify_gauge(DiffMatrix.zero(e, 2), f)
    # delta(F) = 0 = PF holds; only the determinant is in doubt
    assert v.failing_entry is None
    assert v.det_nonzero is None and v.ok is False
    assert (v.det_method, v.det_point) == ("specialisation", None)
    assert v.to_json()["det_nonzero"] is None


def test_specialisation_moves_past_a_vanishing_first_point():
    k = RatFuncField(CycloField(2), "t")
    e = PolyDiffField(k, ["x0", "x1"])
    x0, x1 = e.gen(0), e.gen(1)
    # det = x0 (x1 - x0): the first point sends both to 1, where it vanishes
    assert det_certificate(DiffMatrix(e, [[x0, x0], [x0, x1]]))[::2] == (True, 1)
    # x1^-1 off the diagonal: the first point would send x1 to 0, so it is skipped
    assert det_certificate(DiffMatrix(e, [[x0, x1 ** -1], [x1 ** -1, x0]]))[::2] == (True, 1)
    # on the diagonal, x1^-1 goes to 1 and the first point decides
    assert det_certificate(DiffMatrix(e, [[x1 ** -1, x0], [x0, x1]]))[::2] == (True, 0)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_sparse_product_agrees_with_the_dense_oracle(m, rng):
    """Zero, identity, diagonal (one zero entry), sparse and dense factors over Q(w)(t) and Q(w)(t)(xi)."""
    k = RatFuncField(CycloField(m), "t")
    for field in (k, KummerField(k, k.gen(), m, "xi")):
        x = field.gen()
        entries = [field.one(), x, x + 3, field.coerce(k.gen() - 1) / (x + 2), field.coerce(k.omega())]
        diagonal = [rng.choice(entries) for _ in range(m)]
        diagonal[rng.randrange(m)] = field.zero()
        samples = [DiffMatrix.zero(field, m), DiffMatrix.identity(field, m), DiffMatrix.diagonal(field, diagonal)]
        for density in (0.2, 0.9):
            rows = [[rng.choice(entries) if rng.random() < density else field.zero() for _ in range(m)] for _ in range(m)]
            samples.append(DiffMatrix(field, rows))
        for a in samples:
            for b in samples:
                assert a * b == coercing_matrix_mul(a, b)


def _assert_folded(x, y):
    """x * y lies over x's field and equals the fold sum(a * b) entry by entry; over an extension a zero
    entry is the field's interned zero and no entry stores a zero coefficient."""
    got, field = x * y, x.field
    assert got.field is field
    for row, want_row in zip(got.rows, folded_matrix_entries(x, y)):
        for a, b in zip(row, want_row):
            assert a == b
            if hasattr(a, "terms"):
                assert a.parent is field and all(not c.is_zero() for c in a.terms.values())
                assert not b.is_zero() or a is field.zero()


def _random_matrices(field, m, rng, entry):
    """The zero and identity matrices, a diagonal one and two random ones of density 0.3 and 0.8."""
    samples = [DiffMatrix.zero(field, m), DiffMatrix.identity(field, m)]
    samples.append(DiffMatrix.diagonal(field, [entry() for _ in range(m)]))
    for density in (0.3, 0.8):
        rows = [[entry() if rng.random() < density else 0 for _ in range(m)] for _ in range(m)]
        samples.append(DiffMatrix(field, rows))
    return samples


@pytest.mark.parametrize("m", [2, 3, 4])
def test_a_product_entry_is_the_fold_of_its_products(m, rng):
    """Over Q(w)(t), over Kummer towers of depth 1 and 2, and over Q(w)(t)(xi)[x0, x1, x2] with Laurent
    monomials and constant factors on the left, on the right and on both sides; then B_E * A_k, with A_k
    over the field below E; then sums that cancel, in whole and in part."""
    k = RatFuncField(CycloField(m), "t")
    t = k.gen()
    e1 = KummerField(k, t, m, "xi")
    e2 = KummerField(e1, t + 1, m, "eta")
    ring = PolyDiffField(e1, ["x0", "x1", "x2"])
    xi = e1.gen()
    scalars = [k.one(), -k.one(), t, t + 3, (t - 1) / (t + 2), k.omega() * t]

    def scalar():
        return rng.choice(scalars)

    def kummer(field):
        def entry():
            terms = rng.randrange(1, 3)
            return sum((scalar() * field.gen() ** rng.randrange(m) for _ in range(terms)), field.zero())

        return entry

    def monomial():
        x0, x2 = ring.gen(0) ** rng.randrange(-2, 3), ring.gen(2) ** rng.randrange(-1, 2)
        return scalar() * xi ** rng.randrange(m) * x0 * x2

    def laurent():
        return sum((monomial() for _ in range(rng.randrange(1, 4))), ring.zero())

    def constant():
        return ring.coerce(kummer(e1)())

    fields = {k: scalar, e1: kummer(e1), e2: kummer(e2), ring: lambda: rng.choice((laurent, constant))()}
    over = {field: _random_matrices(field, m, rng, entry) for field, entry in fields.items()}
    over[ring] += _random_matrices(ring, m, rng, constant)
    for field, samples in over.items():
        for x in samples:
            for y in samples:
                _assert_folded(x, y)
    # B_E * A_k: each pair takes a * b, which lies in E
    for big, small in ((e1, k), (e2, e1), (e2, k), (ring, e1), (ring, k)):
        for x in over[big]:
            for y in over[small]:
                _assert_folded(x, y)
    # p q - q p = 0 over the ring, taken by scaling when p or q is a constant; with q x0 added only
    # that term is left
    x0 = ring.gen(0)
    for p_entry, q_entry in ((laurent, laurent), (constant, laurent), (laurent, constant), (constant, constant)):
        p, q = p_entry(), q_entry()
        x = DiffMatrix(ring, [[p, q], [q, x0]])
        y = DiffMatrix(ring, [[q, q], [-p, x0 - p]])
        _assert_folded(x, y)
        assert (x * y).rows[0][0] is ring.zero() and (x * y).rows[0][1] == q * x0


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_diagonal_det_agrees_with_the_multiplied_out_product(m, rng):
    """A diagonal F, with and without one zero entry, over a field, a Kummer field and a polynomial ring;
    over the ring also the generic X, whose first specialisation is I, and X with x00 - 1 on the diagonal,
    whose first specialisation is diagonal with a zero."""
    k = RatFuncField(CycloField(m), "t")
    poly = PolyDiffField(k, [f"x{i}" for i in range(m * m)])
    for ring in (k, KummerField(k, k.gen(), m, "xi"), poly):
        entries = [ring.gen() if ring is not poly else ring.gen(i) for i in range(m)]
        entries = [e * rng.randint(1, 3) + rng.randint(-2, 2) for e in entries]
        for zero_at in (None, rng.randrange(m)):
            diagonal = list(entries)
            if zero_at is not None:
                diagonal[zero_at] = ring.zero()
            f = DiffMatrix.diagonal(ring, diagonal)
            assert det_certificate(f) == multiplied_det_certificate(f) == (zero_at is None, "diagonal", None)
    gens = [[poly.gen(r * m + s) for s in range(m)] for r in range(m)]
    shifted = [list(row) for row in gens]
    shifted[0][0] = shifted[0][0] - 1
    for rows, want in ((gens, (True, "specialisation", 0)), (shifted, (True, "specialisation", 1))):
        f = DiffMatrix(poly, rows)
        assert det_certificate(f) == multiplied_det_certificate(f) == want


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_integer_specialisation_agrees_with_the_fraction_route(m, rng):
    """Laurent polynomials with negative exponents, over Q(w)(t) and Q(w)(t)(xi), at points with 16-bit
    coordinates, at 0/1 points, and at points where a monomial takes the value 1."""
    k = RatFuncField(CycloField(m), "t")
    for base in (k, KummerField(k, k.gen(), m, "xi")):
        e = PolyDiffField(base, [f"x{i}" for i in range(m)])
        x = base.gen()
        for _ in range(12):
            p = e.zero()
            for _ in range(rng.randint(0, 4)):
                exps = tuple(rng.randint(-3, 3) for _ in range(m))
                p = p + polydiff_from_dense(e, {exps: base.coerce(rng.choice((1, 1, -2, 3))) + x * rng.randint(-1, 1)})
            negative = {i for key in p.terms for i, d in key if d < 0}
            points = [
                [rng.randrange(1, 1 << 16) for _ in range(m)],
                [1 if i in negative else rng.choice((0, 1)) for i in range(m)],
                [rng.choice((1, 2, 4)) for _ in range(m)],
            ]
            for point in points:
                assert _specialise(p, point, base) == fraction_specialise(p, point, base)


def test_the_identity_point_builds_no_fraction(monkeypatch):
    """The first point sends the generic X to I: every monomial takes the value 0 or 1, so no Fraction is built."""
    from fractions import Fraction

    k = RatFuncField(CycloField(3), "t")
    poly = PolyDiffField(k, [f"x{i}" for i in range(9)])
    f = DiffMatrix(poly, [[poly.gen(3 * r + s) for s in range(3)] for r in range(3)])
    fractions = []
    monkeypatch.setattr(diffsym.matdiff, "Fraction", lambda *args: fractions.append(args) or Fraction(*args))
    assert _det_certificate(f) == (True, "specialisation", 0)
    assert fractions == []
