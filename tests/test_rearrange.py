import math

import numpy as np
import pytest

from bendflow import (
    DomainError,
    GridFunction,
    UniformGrid,
    c0,
    critical_profile,
    decreasing_rearrangement,
    first_diff,
    g,
    g_inv,
    l2_norm,
    one_over_ginv_second_derivative,
    random_concave_profile,
    symmetric_rearrangement,
    talenti_comparison,
    talenti_inequality_check,
    trapezoid_weights,
)

from conftest import simpson_adaptive


def test_decreasing_rearrangement_basics():
    grid = UniformGrid(50)
    const = GridFunction.constant(grid, 0.7)
    assert np.array_equal(decreasing_rearrangement(const).values, const.values)
    ramp = GridFunction(grid, grid.nodes)
    fstar = decreasing_rearrangement(ramp)
    assert np.array_equal(fstar.values, ramp.values[::-1])
    # permutation: multiset equality is exact
    rng = np.random.default_rng(0)
    f = GridFunction(grid, rng.uniform(0, 1, grid.n + 1))
    fs = decreasing_rearrangement(f)
    assert np.array_equal(np.sort(f.values), np.sort(fs.values))
    with pytest.raises(DomainError):
        decreasing_rearrangement(GridFunction.constant(grid, -1.0))


def test_symmetric_rearrangement_of_ramp():
    grid = UniformGrid(64)
    ramp = GridFunction(grid, grid.nodes)
    fsym = symmetric_rearrangement(ramp).values
    expected = 1.0 - 2.0 * np.abs(grid.nodes - 0.5)
    assert np.allclose(fsym, expected, atol=1e-14)


def test_symmetric_rearrangement_fixed_point():
    grid = UniformGrid(200)
    s = GridFunction(grid, np.sin(np.pi * grid.nodes))
    fsym = symmetric_rearrangement(s).values
    assert float(np.max(np.abs(fsym - s.values))) <= 4.0 * grid.h
    const = GridFunction.constant(grid, 0.3)
    assert np.array_equal(symmetric_rearrangement(const).values, const.values)


def test_symmetric_rearrangement_shape():
    grid = UniformGrid(128)
    rng = np.random.default_rng(2)
    f = GridFunction(grid, rng.uniform(0, 1, grid.n + 1))
    fsym = symmetric_rearrangement(f).values
    m = grid.midpoint_index
    left = fsym[: m + 1]
    assert np.all(np.diff(left) >= 0)           # increasing toward 1/2
    assert np.array_equal(fsym, fsym[::-1])     # symmetric


def test_talenti_comparison_zero():
    grid = UniformGrid(64)
    v = talenti_comparison(GridFunction.zeros(grid))
    assert np.array_equal(v.values, np.zeros(grid.n + 1))


def test_talenti_comparison_constant_source():
    # v(1/2) = (1/2) int_0^1 Ginv(s/2) ds, cross-checked by the Simpson oracle
    grid = UniformGrid(4000)
    v = talenti_comparison(GridFunction.constant(grid, 1.0))
    oracle = 0.5 * simpson_adaptive(lambda s: g_inv(0.5 * s), 0.0, 1.0,
                                    tol=1e-11)
    assert abs(v.values[grid.midpoint_index] - oracle) < 1e-8
    assert v.values[0] == 0.0 and v.values[-1] == 0.0
    assert np.array_equal(v.values, v.values[::-1])


def test_talenti_comparison_solves_equation_to_first_order():
    # residual of -G(v')' = f_* decays with h for f constant
    errs = {}
    for n in (200, 400):
        grid = UniformGrid(n)
        f = GridFunction.constant(grid, 1.0)
        v = talenti_comparison(f)
        gp = np.array([g(s) for s in first_diff(v)])
        resid = -(gp[2:] - gp[:-2]) / (2 * grid.h) - 1.0
        errs[n] = float(np.max(np.abs(resid)))
    assert errs[400] < errs[200]
    assert errs[400] <= 10.0 * (1.0 / 400)


def test_talenti_comparison_l2_guard():
    grid = UniformGrid(64)
    big = GridFunction.constant(grid, c0())
    with pytest.raises(DomainError):
        talenti_comparison(big)


def test_talenti_inequality_random_concave():
    rng = np.random.default_rng(7)
    grid = UniformGrid(200)
    for _ in range(20):
        u = random_concave_profile(rng, grid)
        rep = talenti_inequality_check(u)
        assert rep.holds, f"comparison failed with gap {rep.min_gap}"


def test_talenti_inequality_near_equality_for_symmetric_profile():
    # the critical profile is symmetric decreasing: u_* = u and the
    # comparison reproduces it to mesh accuracy
    cp = critical_profile(0.05, UniformGrid(200))
    rep = talenti_inequality_check(cp.profile)
    assert rep.holds
    u_star = symmetric_rearrangement(cp.profile)
    assert float(np.max(np.abs(u_star.values - cp.profile.values))) <= 1e-10


def test_talenti_inequality_zero():
    grid = UniformGrid(64)
    rep = talenti_inequality_check(GridFunction.zeros(grid))
    assert rep.holds
    assert rep.min_gap == 0.0


def test_talenti_inequality_rejects_steep_or_nonconcave():
    grid = UniformGrid(100)
    x = grid.nodes
    steep = GridFunction(grid, 3.0 * x * (1 - x))  # slope 3 at the ends
    with pytest.raises(DomainError):
        talenti_inequality_check(steep)
    wiggle = GridFunction(grid, np.sin(2 * np.pi * x) * 0.1)
    with pytest.raises(DomainError):
        talenti_inequality_check(wiggle)


def test_random_concave_profiles_are_valid_inputs():
    rng = np.random.default_rng(13)
    grid = UniformGrid(200)
    for _ in range(10):
        u = random_concave_profile(rng, grid)
        v = u.values
        assert v[0] == 0.0 and v[-1] == 0.0
        assert np.min(v) >= 0.0
        assert float(np.max(np.abs(first_diff(u)))) <= 2.0
        upp = (v[2:] + v[:-2] - 2 * v[1:-1])
        assert np.max(upp) <= 1e-12


def test_one_over_ginv_second_derivative_signs():
    assert abs(one_over_ginv_second_derivative(g(2.0))) < 1e-9
    assert one_over_ginv_second_derivative(g(1.0)) > 0.0
    assert one_over_ginv_second_derivative(g(3.0)) < 0.0
    with pytest.raises(DomainError):
        one_over_ginv_second_derivative(0.0)
    with pytest.raises(DomainError):
        one_over_ginv_second_derivative(c0())


def test_one_over_ginv_second_derivative_sign_pattern():
    s2 = g(2.0)
    for s in np.linspace(1e-2, s2 - 1e-3, 50):
        assert one_over_ginv_second_derivative(float(s)) > 0.0
    top = c0() / 2 - 1e-6
    for s in np.linspace(s2 + 1e-3, top, 50):
        assert one_over_ginv_second_derivative(float(s)) < 0.0


def test_one_over_ginv_second_derivative_matches_fd():
    # the eps^2-amplified rounding of the central stencil is a few 1e-6
    eps = 1e-5
    for s in (0.3, 0.7, g(2.0), 1.1):
        fd = (1.0 / g_inv(s + eps) - 2.0 / g_inv(s) + 1.0 / g_inv(s - eps)) \
            / eps**2
        assert abs(fd - one_over_ginv_second_derivative(s)) < 2e-5 * max(
            1.0, abs(fd))


def test_trapezoid_norms_preserved_to_quadrature_error():
    rng = np.random.default_rng(4)
    grid = UniformGrid(400)
    u = random_concave_profile(rng, grid)
    us = symmetric_rearrangement(u)
    w = trapezoid_weights(grid)
    for p in (1, 2):
        a = float(np.sum(w * u.values**p)) ** (1 / p)
        b = float(np.sum(w * us.values**p)) ** (1 / p)
        assert abs(a - b) <= 5.0 * grid.h
    assert abs(l2_norm(u) - l2_norm(us)) <= 5.0 * grid.h
