"""Symbol algebra structure: relations, trace, centralizers, minimal polynomials."""

import pytest

import diffsym.symalg as symalg
from diffsym import SymbolAlgebra
from diffsym.split import PhiMap, find_twist_partner, split_inner, xi_extension
from diffsym.symalg import (
    centralizer,
    in_generated_subfield,
    inverse_via_minimal_polynomial,
    minimal_polynomial,
)
from diffsym.parser import symbol_to_str
from diffsym.scalars import CycloField, KummerField, RatFuncField
from generators import random_element
from oracles import growing_minimal_polynomial, left_multiplication_matrix, span_of_powers_contains


def make_algebra(m, derivation="dt"):
    k = RatFuncField(CycloField(m), "t", derivation)
    t = k.gen()
    return SymbolAlgebra(k, t, t + k.one(), m)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_defining_relations(m):
    alg = make_algebra(m)
    assert alg.u() ** m == alg.scalar(alg.alpha)
    assert alg.v() ** m == alg.scalar(alg.beta)
    lhs = alg.v() * alg.u()
    rhs = (alg.u() * alg.v()).scale(alg.field.coerce(alg.omega))
    assert lhs == rhs


@pytest.mark.parametrize("m", [2, 3])
def test_associativity_random(m, rng):
    alg = make_algebra(m)
    for _ in range(15):
        a, b, c = (random_element(alg, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("m", [2, 3])
def test_regular_representation_is_multiplicative(m, rng):
    """Cross-check of the product against the m^2-dimensional matrix model."""
    alg = make_algebra(m)
    f = alg.field

    def matmul(x, y):
        n = len(x)
        return [
            [sum((x[i][l] * y[l][j] for l in range(n)), f.zero()) for j in range(n)]
            for i in range(n)
        ]

    for _ in range(8):
        a, b = random_element(alg, rng), random_element(alg, rng)
        lhs = left_multiplication_matrix(a * b)
        rhs = matmul(left_multiplication_matrix(a), left_multiplication_matrix(b))
        assert all(
            (x - y).is_zero() for r1, r2 in zip(lhs, rhs) for x, y in zip(r1, r2)
        )


def test_trace_properties(rng):
    alg = make_algebra(3)
    for _ in range(15):
        a, b = random_element(alg, rng), random_element(alg, rng)
        assert (a * b).trace() == (b * a).trace()
        assert (a + b).trace() == a.trace() + b.trace()
    assert alg.one().trace() == alg.field.coerce(9)
    assert alg.u().trace().is_zero()
    assert (alg.u() * alg.v()).trace().is_zero()


@pytest.mark.parametrize("m", [2, 3])
def test_centralizer_of_u_is_ku(m):
    alg = make_algebra(m)
    basis = centralizer(alg.u())
    assert len(basis) == m
    for b in basis:
        assert in_generated_subfield(b, alg.u())


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_a_grid_builds_through_the_algebras_trusted_constructor(m):
    """from_grid gives the interned zero for an all-zero grid, and twisted_centralizer reads its kernel back
    through it: each basis element is from_grid of its own grid, with no zero stored."""
    alg = make_algebra(m)
    zero = alg.field.zero()
    assert alg.from_grid([[0] * m] * m) is alg.zero_elem()
    assert alg.from_grid([[zero] * m for _ in range(m)]) is alg.zero_elem()
    with pytest.raises(ValueError, match="wrong shape"):
        alg.from_grid([[0] * m] * (m - 1))
    for a, c in ((alg.u(), 1), (alg.u() + alg.v(), 1), (alg.u(), alg.omega)):
        basis = symalg.twisted_centralizer(a, c)
        assert basis
        for x in basis:
            assert x == alg.from_grid(x.grid) and x.terms == alg.from_grid(x.grid).terms
            assert not any(coeff.is_zero() for coeff in x.terms.values())


# centralizer and find_twist_partner once ran separate kernel computations;
# these are their outputs then, over the zero base derivation with (t, t+1).
SEPARATE_KERNEL_OUTPUTS = {
    (2, "u"): (["1", "u"], "v"),
    (2, "v"): (["1", "v"], "u"),
    (2, "u + v"): (["1", "v + u"], "((-t)/(t + 1))*v + u"),
    (3, "u"): (["1", "u", "u^2"], "v"),
    (3, "v"): (["1", "v", "v^2"], "u^2"),
    (3, "u + v"): (
        ["1", "v + u", "v^2 + (w + 1)*u*v + u^2"],
        "((-t)/(t + 1))*v^2 + (((-w - 1)*t)/(t + 1))*u*v + u^2",
    ),
}


@pytest.mark.parametrize("m, name", sorted(SEPARATE_KERNEL_OUTPUTS))
def test_shared_kernel_reproduces_centralizer_and_twist_partner(m, name):
    alg = make_algebra(m, derivation="zero")
    x = {"u": alg.u(), "v": alg.v(), "u + v": alg.u() + alg.v()}[name]
    basis, partner = SEPARATE_KERNEL_OUTPUTS[(m, name)]
    assert [symbol_to_str(b) for b in centralizer(x)] == basis
    assert symbol_to_str(find_twist_partner(x)) == partner


def test_minimal_polynomial_of_generators():
    alg = make_algebra(3)
    p = minimal_polynomial(alg.u())
    assert p.degree == 3
    assert p.coeff(0) == -alg.alpha
    assert p.coeff(1).is_zero() and p.coeff(2).is_zero()
    # scalars have degree-1 minimal polynomial
    assert minimal_polynomial(alg.scalar(alg.field.gen())).degree == 1


def test_inverse_via_minimal_polynomial(rng):
    alg = make_algebra(2)
    for _ in range(10):
        gamma = random_element(alg, rng)
        if gamma.is_zero():
            continue
        try:
            inv = inverse_via_minimal_polynomial(gamma)
        except ZeroDivisionError:
            continue
        assert inv * gamma == alg.one()


def sweep_elements(m, rng):
    """The seeded elements of the minimal-polynomial sweep at degree m."""
    k = RatFuncField(CycloField(m), "t")
    t = k.gen()
    alg = SymbolAlgebra(k, t, t + k.one(), m)
    elems = [alg.zero_elem(), alg.scalar(3), alg.scalar(t), alg.u(), alg.v(), alg.u() + alg.v()]
    elems += [random_element(alg, rng, entries=n) for n in (1, 2)]
    # with m terms of t-degree 1, the elimination over Q(w)(t) runs for minutes at m = 7;
    # constant coefficients, and constant radicands for dense elements, keep it small
    elems.append(random_element(alg, rng, entries=m, max_deg=0))
    const = SymbolAlgebra(k, 2, 3, m)
    elems.append(random_element(const, rng, entries=m * m, coeff_range=2, max_deg=0))
    if m <= 5:
        full = [[rng.choice((-2, -1, 1, 2)) for _ in range(m)] for _ in range(m)]
        elems.append(const.from_grid(full))
    # (1, t) is split: 1 - u, its multiples and 1 + u + ... + u^(m-1) are zero divisors
    split = SymbolAlgebra(k, 1, t, m)
    one_minus_u = split.one() - split.u()
    elems += [one_minus_u, one_minus_u * split.v(), sum((split.u(i) for i in range(m)), split.zero_elem())]
    elems.append(random_element(split, rng, entries=2, max_deg=0))
    if m <= 4:
        # over k(xi), xi^m = alpha, u - xi is a zero divisor
        e = KummerField(k, alg.alpha, m, "xi")
        ext = alg.extend(e)
        xi = ext.scalar(e.gen())
        elems += [ext.u() - xi, ext.u() * xi + ext.v()]
        elems.append(ext.coerce_elem(random_element(alg, rng, entries=m, max_deg=0)) + xi)
    return elems


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_one_elimination_agrees_with_the_growing_solve(m, rng):
    for x in sweep_elements(m, rng):
        alg = x.algebra
        p = growing_minimal_polynomial(x)
        assert minimal_polynomial(x) == p
        if p.coeff(0).is_zero():
            with pytest.raises(ZeroDivisionError, match="zero divisor"):
                inverse_via_minimal_polynomial(x)
        else:
            assert x * inverse_via_minimal_polynomial(x) == alg.one()
        for y in (x * x - x, alg.v()):
            assert in_generated_subfield(y, x) == span_of_powers_contains(y, x, p.degree)


@pytest.mark.parametrize("name", ["minimal_polynomial", "in_generated_subfield", "inverse_via_minimal_polynomial"])
def test_each_answer_takes_one_elimination(name, monkeypatch):
    """One kernel or one affine solve over 1, x, ..., x^m, where a solve per degree took d or d + 1."""
    alg = make_algebra(4)
    x = alg.u() + alg.v()
    assert minimal_polynomial(x).degree == 4
    calls = []
    for solver in ("kernel_basis", "solve_affine"):
        original = getattr(symalg, solver)
        monkeypatch.setattr(symalg, solver, lambda *args, _f=original: calls.append(_f) or _f(*args))
    args = (alg.u(), x) if name == "in_generated_subfield" else (x,)
    getattr(symalg, name)(*args)
    assert len(calls) == 1


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_generator_powers_for_every_integer_exponent(m):
    alg = make_algebra(m)
    for gen in (alg.u, alg.v):
        for i in range(-2 * m, 2 * m + 2):
            if i >= 0:
                assert gen(i) == gen() ** i
            assert gen(i) * gen(-i) == alg.one()
    assert alg.u(-1) == alg.monomial(m - 1, 0, alg.field.one() / alg.alpha)


def test_inv_is_the_minimal_polynomial_inverse():
    for m in (2, 3):
        alg = make_algebra(m)
        x = alg.u() + alg.v()
        assert x.inv() == inverse_via_minimal_polynomial(x)
        assert x**-1 * x == alg.one()
    k = RatFuncField(CycloField(2), "t")
    alg = SymbolAlgebra(k, k.one(), k.gen(), 2)
    with pytest.raises(ZeroDivisionError):
        (alg.one() + alg.u()).inv()  # (1 + u)(1 - u) = 1 - alpha = 0


def test_a_scalar_inverse_takes_no_elimination(monkeypatch):
    """c^-1 for a scalar c is its inverse in the field, at m = 16 and over k(xi) too."""
    calls = []
    original = symalg.kernel_basis
    monkeypatch.setattr(symalg, "kernel_basis", lambda *args: calls.append(args) or original(*args))
    k = RatFuncField(CycloField(16), "t")
    t = k.gen()
    alg = SymbolAlgebra(k, t, t + 1, 16)
    e = KummerField(k, t, 16, "xi")
    ext = alg.extend(e)
    for a, c in ((alg, t + 1), (alg, k.coerce(3)), (ext, e.gen() + e.coerce(t))):
        x = a.scalar(c)
        assert x.inv() == a.scalar(c.inv())
        assert x**-2 * x * x == a.one()
        assert a.u() / x == a.u().scale(c.inv())
    assert calls == []
    for x in (alg.zero_elem(), ext.zero_elem(), alg.u() - alg.u()):
        with pytest.raises(ZeroDivisionError, match="inverse of zero"):
            x.inv()
        with pytest.raises(ZeroDivisionError, match="inverse of zero"):
            alg.u() / alg.coerce_elem(x)


def test_extend_preserves_relations():
    from diffsym.scalars import KummerField

    alg = make_algebra(2)
    e = KummerField(alg.field, alg.alpha, 2, "xi")
    ext = alg.extend(e)
    assert ext.u() ** 2 == ext.scalar(ext.alpha)
    x = ext.coerce_elem(alg.u() + alg.v())
    assert x == ext.u() + ext.v()


def test_mismatched_algebras_rejected():
    from diffsym.symalg import AlgebraMismatchError

    a2 = make_algebra(2)
    k = a2.field
    other = SymbolAlgebra(k, k.gen(), k.gen(), 2)
    with pytest.raises(AlgebraMismatchError):
        a2.u() + other.u()
    # coerce_elem takes no element of other relations either, over k or over k(xi)
    a = make_algebra(3, derivation="zero")
    k = a.field
    t = k.gen()
    b = SymbolAlgebra(k, t * t * 5, t - 7, 3)
    phi = PhiMap(a, xi_extension(a))
    for refused in (lambda: a.coerce_elem(b.u()), lambda: split_inner(a, b.u()), lambda: phi.apply(b.v())):
        with pytest.raises(AlgebraMismatchError):
            refused()
    # an equal algebra, and the algebra that phi's extension was built from, are taken
    twin = make_algebra(3, derivation="zero")
    assert a.coerce_elem(twin.u()) == a.u() and phi.apply(twin.v()) == phi.apply(a.v()) == phi.b_mat


def test_one_algebra_takes_no_algebra_comparison(monkeypatch):
    from diffsym.symalg import AlgebraMismatchError

    calls = []
    original = SymbolAlgebra.__eq__

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(SymbolAlgebra, "__eq__", counting)
    alg = make_algebra(3)
    x, y = alg.u() + alg.scalar(2), alg.v()
    for got in (x + y, x * y, x - y):
        assert got.algebra is alg
    assert calls == []
    twin = make_algebra(3)
    assert (x + twin.v()).algebra is alg and x * twin.v() == x * y
    assert calls
    k = alg.field
    other = SymbolAlgebra(k, k.gen(), k.gen(), 3)
    for op in (lambda a, b: a + b, lambda a, b: a * b):
        with pytest.raises(AlgebraMismatchError):
            op(x, other.v())
