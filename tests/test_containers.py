"""The container layers on trusted constructors: unit operands, coercion counts, oracles, field membership.

Matrices, symbol algebra elements and differential polynomials build their
results through trusted constructors, and a product with the field's one
takes no product in the layer below.  The counts pin that; the oracles and
the membership checks guard what the trusted constructors take on trust.
"""

from fractions import Fraction

import pytest

from diffsym import SymbolAlgebra, decompose, deriv, inner_derivation, split_standard, standard_derivation
from diffsym.deriv import Derivation
from diffsym.matdiff import DiffMatrix
from diffsym.scalars import CycloElem, CycloField, KummerField, MonomialDiffField, Poly, RatFunc, RatFuncField
from diffsym.split import (
    PhiMap,
    _checked_t_r,
    closed_form_P,
    compute_P,
    split_generic,
    split_inner_cyclic,
    split_inner_even_half,
    t_r_values,
    verify_diff_isomorphism,
    xi_extension,
)
from diffsym.symalg import SymbolElem
from generators import random_element, random_valid_derivation
from oracles import (
    coercing_matrix_add,
    coercing_matrix_derive,
    coercing_matrix_mul,
    coercing_matrix_scale,
    coercing_symbol_add,
    coercing_symbol_scale,
    dense_symbol_mul,
)


def make_algebra(m, derivation="dt"):
    k = RatFuncField(CycloField(m), "t", derivation)
    t = k.gen()
    return SymbolAlgebra(k, t, t + k.one(), m)


def make_phi(alg):
    return PhiMap(alg, KummerField(alg.field, alg.alpha, alg.m, "xi"))


def _counter(monkeypatch, cls, *names):
    """Patch a call counter onto each named method of cls; the list collects the calls."""
    calls = []
    for name in names:
        original = getattr(cls, name)

        def counting(*args, _original=original):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(cls, name, counting)
    return calls


# -- counts --------------------------------------------------------------


def test_split_generic_at_m5_takes_no_polynomial_product(monkeypatch):
    alg = make_algebra(5)
    k = alg.field
    t = k.gen()
    theta = alg.monomial(1, 0, k.one()) + alg.monomial(0, 1, t) + alg.monomial(2, 3, t + 3)
    p = compute_P(standard_derivation(alg) + inner_derivation(theta), make_phi(alg))
    products = _counter(monkeypatch, Poly, "__mul__", "__rmul__")
    rep = split_generic(p)
    assert rep.passed and rep.gauge.det_nonzero
    assert not products


def test_split_standard_at_m5_coerces_few_kummer_elements(monkeypatch):
    alg = make_algebra(5)
    coercions = _counter(monkeypatch, KummerField, "coerce")
    rep = split_standard(alg)
    assert rep.passed and rep.degree == 25
    assert len(coercions) <= 1400


def _theta(alg):
    k = alg.field
    t = k.gen()
    return alg.monomial(1, 0, k.one()) + alg.monomial(0, 1, t) + alg.monomial(alg.m - 1, 1, t + 3)


@pytest.mark.parametrize("m", [3, 5, 7])
def test_a_second_decompose_inverts_nothing(monkeypatch, m):
    alg = make_algebra(m)
    d = standard_derivation(alg) + inner_derivation(_theta(alg))
    du, dv = d.du, d.dv
    inverses = _counter(monkeypatch, CycloElem, "inv")
    theta = decompose(Derivation(alg, du, dv))
    first = len(inverses)
    assert first <= m
    assert decompose(Derivation(alg, du, dv)) == theta and len(inverses) == first
    # a derivation built from theta holds it, so it takes no inverse at all
    assert decompose(d) == theta and len(inverses) == first


@pytest.mark.parametrize("m", [2, 3, 5, 7])
def test_algebras_over_one_field_share_its_gap_inverses(monkeypatch, m):
    """The m - 1 inverses (1 - w^j)^-1 are the field's, taken once for every algebra over it."""
    k = RatFuncField(CycloField(m), "t")
    t = k.gen()
    inverses = _counter(monkeypatch, CycloElem, "inv")
    # monic radicands: alpha^-1 takes no inverse in Q(w)
    first, second = SymbolAlgebra(k, t, t + k.one(), m), SymbolAlgebra(k, t * t + 2, t - 3, m)
    assert first.inverse_gaps[0] == second.inverse_gaps[0]
    assert len(inverses) == m - 1


def test_derivation_apply_on_a_scalar_takes_no_product(monkeypatch, rng):
    alg = make_algebra(3)
    d = random_valid_derivation(alg, rng)
    t = alg.field.gen()
    c = t * t / (t + alg.field.one())
    products = _counter(monkeypatch, SymbolElem, "__mul__")
    assert d.apply(alg.scalar(c)) == alg.monomial(0, 0, c.derive())
    assert not products


def test_compute_P_from_theta_takes_no_product_and_no_validation(monkeypatch):
    alg = make_algebra(3)
    phi = make_phi(alg)
    d = standard_derivation(alg) + inner_derivation(_theta(alg))
    products = _counter(monkeypatch, SymbolElem, "__mul__")
    validations = []
    validate = deriv.validate
    monkeypatch.setattr(deriv, "validate", lambda *args: validations.append(args) or validate(*args))
    p = compute_P(d, phi)
    assert not products and not validations
    monkeypatch.undo()
    assert p == closed_form_P(_theta(alg), phi)


def test_split_standard_leaves_the_inverse_gaps_uncomputed(monkeypatch):
    """A fresh algebra at m = 5 takes at most the 122 Q(w) inverses of the dividing release."""
    _checked_t_r.cache_clear()
    alg = make_algebra(5)
    inverses = _counter(monkeypatch, CycloElem, "inv")
    assert split_standard(alg).passed
    assert len(inverses) <= 122
    assert "inverse_gaps" not in vars(alg)


def test_a_second_t_r_values_inverts_nothing(monkeypatch):
    _checked_t_r.cache_clear()
    inverses = _counter(monkeypatch, CycloElem, "inv")
    for m in range(2, 8):
        before = len(inverses)
        t_r_values(m)
        assert len(inverses) - before == m - 1
        t_r_values(m)
        assert len(inverses) - before == m - 1


def test_the_xi_field_takes_the_rate_the_algebra_holds(monkeypatch):
    """k(xi) built with delta(alpha)/(m alpha) from the algebra takes one Q(w) inverse fewer."""
    for m in (2, 3, 5):
        alg = make_algebra(m)
        rate = alg.standard_rates[0]
        inverses = _counter(monkeypatch, CycloElem, "inv")
        computed = KummerField(alg.field, alg.alpha, m, "xi")
        without = len(inverses)
        passed = xi_extension(alg)
        assert len(inverses) - without == without - 1
        monkeypatch.undo()
        assert passed.gen_rate == computed.gen_rate == rate
        # the consistency check still verifies a rate that is passed in
        with pytest.raises(AssertionError, match="inconsistent"):
            KummerField(alg.field, alg.alpha, m, "xi", rate * 2)


def test_verify_diff_isomorphism_builds_no_symbol_algebra(monkeypatch):
    alg = make_algebra(5)
    phi = make_phi(alg)
    d = standard_derivation(alg) + inner_derivation(_theta(alg))
    p = compute_P(d, phi)
    inits = _counter(monkeypatch, SymbolAlgebra, "__init__")
    assert verify_diff_isomorphism(phi, d, p).ok
    assert not inits


def test_extend_takes_the_extended_algebra():
    alg = make_algebra(3)
    phi = make_phi(alg)
    d = standard_derivation(alg)
    d_ext = d.extend(phi.ext_algebra)
    assert d_ext.algebra is phi.ext_algebra and d_ext.du.algebra is phi.ext_algebra
    assert d_ext.du == phi.ext_algebra.coerce_elem(d.du) and d_ext.dv == phi.ext_algebra.coerce_elem(d.dv)
    e = phi.ext_field
    with pytest.raises(ValueError):
        d.extend(SymbolAlgebra(e, e.coerce(alg.alpha), e.coerce(alg.beta) * 2, 3))


def test_a_unit_factor_takes_no_product_in_the_layer_below(monkeypatch):
    k = RatFuncField(CycloField(3), "t")
    t = k.gen()
    xi_field = KummerField(k, t, 3, "xi")
    eta_field = KummerField(xi_field, t + k.one(), 3, "eta")
    xi = xi_field.gen()
    cases = [
        (k, Poly, [t, (t + 2) / (t * t - 3), k.coerce(5), k.omega()]),
        (xi_field, RatFunc, [xi, xi * xi * t + 1, xi_field.coerce(t / (t + 1))]),
        (eta_field, RatFunc, [eta_field.gen() + xi, eta_field.gen() ** 2 * xi]),
    ]
    for field, lower, elements in cases:
        products = _counter(monkeypatch, lower, "__mul__", "__rmul__")
        one = field.one()
        for x in elements:
            for got in (x * one, one * x, x * 1, 1 * x):
                assert got is x
        assert not products
        monkeypatch.undo()


def test_units_are_interned():
    c = CycloField(5)
    assert c.from_rational(1) is c.one() and c.from_rational(Fraction(1)) is c.one()
    assert c.from_rational(0) is c.zero()
    k = RatFuncField(c, "t")
    assert k.coerce(1) is k.one() and k.coerce(c.one()) is k.one() and k.coerce(0) is k.zero()
    e = KummerField(k, k.gen(), 5, "xi")
    assert e.one() is e.one() and e.coerce(1) is e.one() and e.coerce(k.one()) is e.one()
    for base in (k, e):
        x = MonomialDiffField(base, ["x0", "x1"], [0, base.gen()])
        assert x.one() is x.one() and x.coerce(1) is x.one() and x.coerce(base.one()) is x.one()
        assert x.coerce(2) == 2 and x.coerce(2) is not x.one()


def test_coerce_elem_coerces_a_foreign_grid_once(monkeypatch):
    alg = make_algebra(3)
    ext = make_phi(alg).ext_algebra
    x = alg.u() + alg.v().scale(alg.field.gen())
    assert alg.coerce_elem(x) is x
    coercions = _counter(monkeypatch, KummerField, "coerce")
    y = ext.coerce_elem(x)
    # one coercion per stored term, none for the m^2 - 2 zero coefficients
    assert len(coercions) == len(x.terms) == 2
    assert ext.coerce_elem(y) is y and len(coercions) == 2


# -- oracles for the fast paths -------------------------------------------


def _symbol_samples(alg, rng, n_dense):
    """Zero, one, two scalars, u, v, u^(m-1) v^(m-1) (so products wrap through alpha and beta), random elements."""
    m, f = alg.m, alg.field
    g = f.gen()
    samples = [alg.zero_elem(), alg.one(), alg.scalar(3), alg.scalar(g + 2), alg.u(), alg.v()]
    samples.append(alg.monomial(m - 1, m - 1, g))
    samples += [random_element(alg, rng) for _ in range(2)]
    samples += [random_element(alg, rng, entries=2 * m * m) for _ in range(n_dense)]
    return samples


def _extended_samples(alg, phi, rng, n_dense):
    """Samples over k(xi): coerced samples over k plus random elements with xi^j coefficients."""
    ext = phi.ext_algebra
    xi = phi.ext_field.gen()
    samples = [ext.coerce_elem(x) for x in _symbol_samples(alg, rng, 0)]
    samples.append(ext.scalar(xi))
    for _ in range(1 + n_dense):
        a = ext.coerce_elem(random_element(alg, rng))
        b = ext.coerce_elem(random_element(alg, rng, entries=2 * alg.m * alg.m))
        samples.append(a + b.scale(xi ** rng.randrange(1, alg.m)))
    return samples


def _in_field(x, field):
    grid = x.grid if hasattr(x, "grid") else x.rows
    return isinstance(grid, tuple) and all(isinstance(r, tuple) and all(c.parent == field for c in r) for r in grid)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_symbol_arithmetic_matches_the_dense_oracle(m, rng):
    alg = make_algebra(m)
    phi = make_phi(alg)
    n_dense = 1 if m < 5 else 0
    for algebra, samples in ((alg, _symbol_samples(alg, rng, n_dense)), (phi.ext_algebra, _extended_samples(alg, phi, rng, n_dense))):
        field = algebra.field
        scalars = [field.zero(), field.one(), field.gen() * 2 + 1]
        for x in samples:
            for c in scalars:
                got = x.scale(c)
                assert _in_field(got, field) and got == coercing_symbol_scale(x, c)
            for y in samples:
                for got, want in ((x * y, dense_symbol_mul(x, y)), (x + y, coercing_symbol_add(x, y))):
                    assert _in_field(got, field) and got == want


def _assert_canonical(x, want=None):
    """x stores no zero coefficient and, given an element equal to it, the same terms."""
    assert not any(c.is_zero() for c in x.terms.values()), x.terms
    assert want is None or x.terms == want.terms


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_symbol_elements_store_only_nonzero_terms(m, rng):
    alg = make_algebra(m)
    phi = make_phi(alg)
    ext = phi.ext_algebra
    d = random_valid_derivation(alg, rng)
    for algebra, samples in ((alg, _symbol_samples(alg, rng, 0)), (ext, _extended_samples(alg, phi, rng, 0))):
        zero, one, u = algebra.zero_elem(), algebra.one(), algebra.u()
        d_here = d.extend(algebra)
        # (1 + u)(1 - u) = 1 - u^2 cancels inside the product
        _assert_canonical((one + u) * (one - u), one - u * u)
        inverse = (one + u).inv()
        _assert_canonical(inverse)
        _assert_canonical((one + u) * inverse, one)
        for x in samples:
            _assert_canonical(x + (-x), zero)
            _assert_canonical(x - x, zero)
            _assert_canonical(x.scale(algebra.field.zero()), zero)
            _assert_canonical(x.scale(algebra.field.gen()), coercing_symbol_scale(x, algebra.field.gen()))
            _assert_canonical(d_here.apply(x), algebra.from_grid(d_here.apply(x).grid))
            if algebra is ext:
                continue
            y = ext.coerce_elem(x)
            _assert_canonical(y, ext.from_grid(x.grid))
            _assert_canonical(d.extend(ext).apply(y), ext.coerce_elem(d.apply(x)))
        for x in samples:
            for y in samples:
                _assert_canonical(x * y, dense_symbol_mul(x, y))
                _assert_canonical(x + y, coercing_symbol_add(x, y))
                _assert_canonical((x + y) - y, x)
                _assert_canonical(x * y - y * x)


def _matrix_samples(field, rng, m, entries):
    """Zero, identity, a diagonal, and random matrices with about a third of their entries zero."""
    samples = [DiffMatrix.zero(field, m), DiffMatrix.identity(field, m), DiffMatrix.diagonal(field, entries[:m])]
    for _ in range(2):
        rows = [[rng.choice(entries) if rng.random() < 0.7 else field.zero() for _ in range(m)] for _ in range(m)]
        samples.append(DiffMatrix(field, rows))
    return samples


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_matrix_arithmetic_matches_the_coercing_oracle(m, rng):
    alg = make_algebra(m)
    phi = make_phi(alg)
    k, e = alg.field, phi.ext_field
    t, xi = k.gen(), e.gen()
    k_entries = [k.one(), t, t + 3, (t - 1) / (t + 2), k.omega() * t]
    e_entries = [e.one(), xi, xi + t, xi ** (m - 1) * (t + 1), e.coerce(k.omega())]
    over_e = _matrix_samples(e, rng, m, e_entries) + [phi.a_mat, phi.b_mat, phi.apply(random_element(alg, rng))]
    for field, samples in ((k, _matrix_samples(k, rng, m, k_entries)), (e, over_e)):
        scalars = [field.zero(), field.one(), field.gen() + 1]
        for x in samples:
            assert _in_field(x.derive(), field) and x.derive() == coercing_matrix_derive(x)
            for c in scalars:
                got = x.scale(c)
                assert _in_field(got, field) and got == coercing_matrix_scale(x, c)
            for y in samples:
                for got, want in ((x * y, coercing_matrix_mul(x, y)), (x + y, coercing_matrix_add(x, y))):
                    assert _in_field(got, field) and got == want


# -- field membership ----------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_report_matrices_hold_entries_of_their_field(m, rng):
    alg = make_algebra(m)
    flat = make_algebra(m, derivation="zero")
    reports = [split_standard(alg), split_inner_cyclic(flat, flat.u())]
    if m % 2 == 0:
        reports.append(split_inner_even_half(flat, flat.u()))
    reports.append(split_generic(compute_P(random_valid_derivation(alg, rng), make_phi(alg))))
    for rep in reports:
        assert rep.passed
        for mat in (rep.p, rep.f):
            assert _in_field(mat, mat.field)


def test_mixed_field_matrix_arithmetic():
    """Over E = k(xi), B_E + A_k and B_E * A_k lie over E; A_k + B_E is a TypeError."""
    alg = make_algebra(3)
    phi = make_phi(alg)
    k, e = alg.field, phi.ext_field
    t = k.gen()
    a_k = DiffMatrix(k, [[t, k.one(), k.zero()], [k.zero(), t + 1, t], [k.one(), k.zero(), t * t]])
    b_e = phi.a_mat + phi.b_mat
    for got, want in ((b_e + a_k, b_e + a_k.coerce_to(e)), (b_e * a_k, b_e * a_k.coerce_to(e))):
        assert got.field is e and _in_field(got, e) and got == want
    with pytest.raises(TypeError):
        a_k + b_e
