import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from bendflow import (
    DomainError,
    FlowConfig,
    GridFunction,
    StepConvergenceError,
    UniformGrid,
    check_critical,
    cone_obstacle,
    constant_obstacle,
    critical_profile,
    energy,
    f_of_z,
    h_inv,
    h_of_A,
    run_flow,
    u_c_profile,
)
from bendflow.critical import _parametric_table, _pchip


@pytest.fixture(scope="module")
def cp005():
    # N=400 matches the scale at which the first-order residual bound holds
    return critical_profile(0.05, UniformGrid(400))


def test_f_of_z_endpoints_and_monotonicity():
    a = 1.0
    assert f_of_z(a, a) == 0.0
    assert abs(f_of_z(0.0, a) - 0.5) < 1e-12
    zs = np.linspace(0.0, a, 50)
    vals = [f_of_z(z, a) for z in zs]
    assert all(b < a_ for a_, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        f_of_z(-0.1, a)
    with pytest.raises(DomainError):
        f_of_z(1.2, a)


def test_profile_midpoint_and_ends(cp005):
    grid = cp005.grid
    v = cp005.profile.values
    assert v[0] == 0.0 and v[-1] == 0.0
    assert v[grid.midpoint_index] == 0.05  # pinned on the cone tip exactly
    assert np.array_equal(v, v[::-1])
    assert np.min(v) >= 0.0


def test_profile_round_trip(cp005):
    assert abs(h_of_A(cp005.A) - 0.05) < 1e-10


def test_profile_touches_only_at_midpoint(cp005):
    psi = cp005.obstacle.samples.values
    gap = cp005.profile.values - psi
    m = cp005.grid.midpoint_index
    assert gap[m] == 0.0
    off = np.delete(gap[1:-1], m - 1)
    assert np.min(off) > 1e-6


def test_profile_strictly_concave_left_half(cp005):
    from bendflow import second_diff
    upp = second_diff(cp005.profile)
    m = cp005.grid.midpoint_index
    assert np.max(upp[:m]) < 0.0
    assert cp005.residuals["concavity_min"] > 0.0


def test_ode_residual_small(cp005):
    assert cp005.residuals["ode_residual"] <= 1e-6
    # residual vanishes at the midpoint by construction: slope and J both 0
    assert abs(cp005.slope_profile.values[cp005.grid.midpoint_index]) < 1e-14


def test_vi_residual_of_computed_profile(cp005):
    report = cp005.report
    assert report.vi_residual == cp005.residuals["vi_residual"]
    assert report.passes_vi
    assert report.stationarity_inactive <= 1e-5 * report.scale
    assert report.multiplier_min > 0.0
    assert report.nonnegativity_min >= 0.0


def test_parabola_is_not_critical():
    grid = UniformGrid(200)
    obstacle = cone_obstacle(0.05, grid)
    x = grid.nodes
    u = GridFunction(grid, np.maximum(x * (1 - x), obstacle.samples.values))
    report = check_critical(u, obstacle)
    assert not report.passes_vi


def test_zero_is_unconstrained_critical_point():
    grid = UniformGrid(64)
    report = check_critical(GridFunction.zeros(grid),
                            constant_obstacle(-1.0, grid))
    assert report.vi_residual == 0.0
    assert report.stationarity_inactive == 0.0


def test_check_critical_rejects_inadmissible():
    grid = UniformGrid(64)
    with pytest.raises(DomainError):
        check_critical(GridFunction.zeros(grid), cone_obstacle(0.05, grid))


def test_parametric_table_matches_f_of_z():
    # the Gauss-Legendre table against the adaptive-quadrature reference
    for height in (0.02, 0.1, 0.5):
        a = h_inv(height)
        xs, _, zs = _parametric_table(a)
        for j in range(0, len(zs), 97):
            assert abs(xs[j] - f_of_z(zs[j], a)) <= 1e-14


def _assert_pchip_like_scipy(x, y, xq):
    """_pchip against scipy's PchipInterpolator within 4 ulp of max|y| at
    the points xq (they sum the same cubic in the same order), and equal
    to y at every knot but the last. There the last cell's cubic gives
    y[-1] to rounding: within 16 ulp (5 is the worst seen)."""
    ulp = np.spacing(np.max(np.abs(y)))
    with np.errstate(over="ignore"):  # scipy's harmonic mean at tiny secants
        ref = PchipInterpolator(x, y)(xq)
    assert np.max(np.abs(_pchip(x, y, xq) - ref)) <= 4.0 * ulp
    at_knots = _pchip(x, y, x)
    assert np.array_equal(at_knots[:-1], y[:-1])
    assert abs(at_knots[-1] - y[-1]) <= 16.0 * ulp


@pytest.mark.parametrize("height", [0.02, 0.05])
def test_pchip_matches_scipy_on_the_critical_tables(height):
    """The three interpolants critical_profile builds from its table,
    evaluated where it evaluates them, on grids of 200 to 3200 cells."""
    xs, us, zs = _parametric_table(h_inv(height))
    for n in (200, 400, 800, 1600, 3200):
        left_x = UniformGrid(n).nodes[: n // 2 + 1]
        _assert_pchip_like_scipy(xs, us, left_x)
        _assert_pchip_like_scipy(xs, zs, left_x)
        _assert_pchip_like_scipy(us, zs, _pchip(xs, us, left_x))


@settings(max_examples=60, deadline=None)
@given(dx=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=30),
       data=st.data(), sign=st.sampled_from([1.0, -1.0]))
def test_pchip_keeps_monotone_data_monotone(dx, data, sign):
    """On monotone data, flat cells included: scipy's values, the knots,
    and an interpolant monotone on a fine sample up to rounding (16 ulp of
    max|y|; 5 is the worst seen)."""
    steps = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(dx),
                               max_size=len(dx)))
    x = np.concatenate(([0.0], np.cumsum(dx)))
    y = sign * np.concatenate(([0.0], np.cumsum(steps)))
    xq = np.sort(np.concatenate((x, np.linspace(x[0], x[-1], 2001))))
    _assert_pchip_like_scipy(x, y, xq)
    vals = sign * _pchip(x, y, xq)
    assert np.all(np.diff(vals) >= -16.0 * np.spacing(np.max(np.abs(y))))


@pytest.mark.parametrize("y, end, slope", [
    ([0.0, 0.1, 2.0], 0, 0.0),     # three-point estimate -0.8 flips sign: 0
    ([2.0, 0.1, 0.0], -1, 0.0),
    ([0.0, 1.0, -3.0], 0, 3.0),    # secants differ in sign, estimate 3.5: 3 m0
    ([-3.0, 1.0, 0.0], -1, -3.0),
])
def test_pchip_end_slopes(y, end, slope):
    x = np.array([0.0, 1.0, 2.0])
    y = np.array(y)
    s = 2.0**-20
    near = x[end] + (s if end == 0 else -s)
    estimate = (_pchip(x, y, np.array([near]))[0] - y[end]) / (near - x[end])
    assert abs(estimate - slope) <= 1e-4
    _assert_pchip_like_scipy(x, y, np.linspace(0.0, 2.0, 101))


def test_profile_raises_no_integration_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cp = critical_profile(0.1, UniformGrid(200))
    assert cp.profile.values[100] == 0.1


def test_polish_nonconvergence_raises(monkeypatch):
    import bendflow.flow as flow_mod

    raw = flow_mod._mm_step_raw

    def no_newton(f, psi, h, cfg, start=None):
        return raw(f, psi, h, dataclasses.replace(cfg, inner_max_iter=0), start)

    monkeypatch.setattr(flow_mod, "_mm_step_raw", no_newton)
    grid = UniformGrid(100)
    with pytest.raises(StepConvergenceError) as excinfo:
        critical_profile(0.02, grid)
    assert excinfo.value.partial is not None
    assert excinfo.value.partial.shape == (grid.n + 1,)


def test_odd_grid_rejected():
    with pytest.raises(DomainError):
        critical_profile(0.05, UniformGrid(201))


def test_flow_limit_agrees_with_critical_profile():
    # ties the flow to the closed-form construction at desk scale
    grid = UniformGrid(100)
    height = 0.02
    obstacle = cone_obstacle(height, grid)
    u0 = u_c_profile(0.5, grid)
    cfg = FlowConfig(tau=1e-3, t_end=10.0)
    traj = run_flow(u0, obstacle, cfg, stop_when_stall_rate=1e-10)
    cp = critical_profile(height, grid)
    sup = float(np.max(np.abs(traj.iterates[-1].values - cp.profile.values)))
    assert sup <= 5e-3
    # minimality at stall: the critical energy is not above the final
    # iterate's energy beyond solver slack
    assert cp.energy <= float(traj.energies[-1]) + 1e-6
