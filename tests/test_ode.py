"""First-order rational ODEs delta(x) + mu x = g and the bounded-ansatz oracle."""

from fractions import Fraction

import pytest

from diffsym.scalars import CycloField, RatFuncField, rational_ode_solve
from oracles import _proportional, brute_force_ode_oracle


@pytest.fixture
def k():
    return RatFuncField(CycloField(2), "t")


def _check(mu, g, sol):
    k = g.parent
    if sol.has_solution:
        assert sol.particular.derive() + sol.particular * k.coerce(mu) == g
    for h in sol.homogeneous:
        assert (h.derive() + h * k.coerce(mu)).is_zero()


def _random_ratfunc(k, rng, num_deg=3, den_deg=2):
    t = k.gen()
    num = k.zero()
    while num.is_zero():
        num = sum((t**i * rng.randint(-4, 4) for i in range(num_deg + 1)), k.zero())
    den = k.zero()
    while den.is_zero() or den.degree() < 1:
        den = sum((t**i * rng.randint(-3, 3) for i in range(den_deg + 1)), k.zero())
    return num / den


def test_solvable_from_planted_solution(k, rng):
    for _ in range(20):
        x = _random_ratfunc(k, rng)
        mu = k.cyclo.from_rational(rng.randint(0, 3))
        g = x.derive() + x * k.coerce(mu)
        sol = rational_ode_solve(mu, g)
        assert sol.has_solution
        _check(mu, g, sol)
        diff = x - sol.particular
        assert diff.is_zero() or any(_proportional(diff, h) for h in sol.homogeneous)


def test_simple_pole_obstruction(k):
    t = k.gen()
    sol = rational_ode_solve(1, k.one() / t)
    assert not sol.has_solution
    sol = rational_ode_solve(0, k.one() / t)  # log t is not rational
    assert not sol.has_solution


def test_homogeneous_space(k):
    t = k.gen()
    sol = rational_ode_solve(0, t)
    assert sol.has_solution
    assert len(sol.homogeneous) == 1  # the constants
    sol = rational_ode_solve(2, t)
    assert sol.has_solution
    assert sol.homogeneous == []


def test_oracle_agreement_seeded(k, rng):
    agree = 0
    zero_mu = 0
    for _ in range(50):
        mode = rng.randrange(3)
        mu = k.cyclo.from_rational(Fraction(rng.randint(0, 4)))
        if mode == 0:
            x = _random_ratfunc(k, rng, num_deg=2, den_deg=2)
            g = x.derive() + x * k.coerce(mu)
        else:
            g = _random_ratfunc(k, rng, num_deg=3, den_deg=rng.randint(1, 4))
        sol = rational_ode_solve(mu, g)
        oracle = brute_force_ode_oracle(mu, g, degree_bound=8)
        assert sol.has_solution == oracle.has_solution
        # the ansatz kernel holds no solution beyond the closed form
        assert oracle.homogeneous == sol.homogeneous
        if sol.has_solution:
            diff = sol.particular - oracle.particular
            hom = sol.homogeneous
            assert diff.is_zero() or any(_proportional(diff, h) for h in hom)
        agree += 1
        zero_mu += mu.is_zero()
    assert agree == 50
    assert 0 < zero_mu < 50
