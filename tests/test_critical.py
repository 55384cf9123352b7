import dataclasses
import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from bendflow import (
    DomainError,
    FlowConfig,
    GridFunction,
    RangeError,
    StepConvergenceError,
    UniformGrid,
    c0,
    check_critical,
    cone_obstacle,
    constant_obstacle,
    critical_profile,
    derivative_tables,
    energy,
    energy_gradient,
    f_of_z,
    first_variation,
    h_inv,
    h_of_A,
    run_flow,
    table_obstacle,
    trapezoid_weights,
    u_c_profile,
)
from bendflow import critical
from bendflow.critical import _parametric_table, _pchip
from bendflow.discretization import _HESS_BW

from conftest import hessian_bands


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
    grid = cp005.profile.grid
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
    m = cp005.profile.grid.midpoint_index
    assert gap[m] == 0.0
    off = np.delete(gap[1:-1], m - 1)
    assert np.min(off) > 1e-6


def test_profile_strictly_concave_left_half(cp005):
    upp = derivative_tables(cp005.profile)[1][1:-1]
    m = cp005.profile.grid.midpoint_index
    assert np.max(upp[:m]) < 0.0
    assert cp005.report.concavity_min > 0.0


def test_ode_residual_small(cp005):
    assert cp005.ode_residual <= 1e-6
    # residual vanishes at the midpoint by construction: slope and J both 0
    assert abs(cp005.slope_profile.values[cp005.profile.grid.midpoint_index]) < 1e-14


def test_vi_residual_of_computed_profile(cp005):
    report = cp005.report
    assert report.passes_vi
    assert report.stationarity_inactive <= 1e-5 * report.scale
    assert report.multiplier_min > 0.0


@pytest.mark.parametrize("height, n", [(0.02, 200), (0.1, 64)])
def test_report_comes_from_the_polish_evaluation(height, n):
    """critical_profile's report is check_critical's, field for field,
    built from the tables and gradient of the polish's evaluation: it does
    not evaluate the polished profile again."""
    with mock.patch.object(critical, "_evaluate",
                           wraps=critical._evaluate) as evaluations:
        cp = critical_profile(height, UniformGrid(n))
        assert evaluations.call_count == 0
        assert cp.report == check_critical(cp.profile, cp.obstacle)
        assert evaluations.call_count == 1


def test_critical_profile_builds_no_gauss_rule():
    """The 12-point Gauss-Legendre rule of the parametric table is built
    once, at import, not on each call."""
    with mock.patch.object(np.polynomial.legendre, "leggauss",
                           wraps=np.polynomial.legendre.leggauss) as rule:
        critical_profile(0.05, UniformGrid(64))
    assert rule.call_count == 0


def test_critical_point_keeps_one_grid_and_one_height(cp005):
    fields = {f.name for f in dataclasses.fields(cp005)}
    assert not fields & {"grid", "height"}
    assert cp005.obstacle.height == 0.05
    assert cp005.obstacle.grid == cp005.profile.grid == UniformGrid(400)


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


def _vi_reference(u, obstacle):
    """check_critical's vi_residual by its two-direction formula: upward
    (+e_i) over the interior, downward (-e_i) over the inactive nodes, then
    the two global rescaling directions."""
    psi, v, h = obstacle.samples.values, u.values, u.grid.h
    ge = energy_gradient(u).values
    act = v - psi <= 10.0 * critical.VI_TOL * max(1.0, float(np.max(np.abs(v))))
    act[0] = act[-1] = False
    inact = ~act
    inact[0] = inact[-1] = False
    upward = float(np.min(ge[1:-1]))
    downward = float(np.min(-ge[inact])) if inact.any() else math.inf
    vi = min(upward, downward)
    for factor in (1.0 + 1e-3, 1.0 - 1e-3):
        d = np.maximum(psi, factor * v) - v
        d[0] = d[-1] = 0.0
        norm = float(np.max(np.abs(d)))
        if norm > 0:
            vi = min(vi, first_variation(u, GridFunction(u.grid, d / norm)) / h)
    return vi


@settings(max_examples=60, deadline=None)
@given(n=st.integers(16, 200), seed=st.integers(0, 2**32 - 1),
       height=st.floats(0.005, 0.3), level=st.just(None))
@example(n=64, seed=0, height=0.0, level=0.0)    # every interior node active
@example(n=64, seed=0, height=0.0, level=-1.0)   # no node active
def test_vi_residual_keeps_the_two_direction_bits(n, seed, height, level):
    """vi_residual, whose coordinate part reads the certificate split, has
    the bits of the two-direction formula, signs of zero included, on
    random admissible profiles over random cones (some nodes on the cone,
    some within and some beyond the active-set tolerance of it) and on the
    zero profile over a constant obstacle (`level`) that it lies on or
    above."""
    grid = UniformGrid(n)
    if level is None:
        rng = np.random.default_rng(seed)
        obstacle = cone_obstacle(height, grid)
        psi, x = obstacle.samples.values, grid.nodes
        coef = rng.normal(size=4) * 0.05 / np.arange(1, 5)
        wave = sum(coef[k] * np.sin((k + 1) * np.pi * x) for k in range(4))
        lift = rng.uniform(0.0, 2e-4, n + 1) * (rng.random(n + 1) < 0.3)
        v = np.maximum(psi + lift, wave)
        v[0] = v[-1] = 0.0
        u = GridFunction(grid, v)
    else:
        obstacle = constant_obstacle(level, grid)
        u = GridFunction.zeros(grid)
    got = check_critical(u, obstacle).vi_residual
    want = _vi_reference(u, obstacle)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_vi_residual_with_every_node_active_has_no_downward_term():
    """A profile that rests on its obstacle at every node, loaded so that
    its gradient is about 1e-6 on every interior node (it solves the
    Hessian of E_h at 0 against that load), admits no -e_i: its
    vi_residual is the least upward derivative, > 0, as the two-direction
    formula gives, not the -0.0 of an empty inactive set."""
    grid = UniformGrid(64)
    h, n = grid.h, grid.n
    zero = np.zeros(n + 1)
    ab = hessian_bands(zero, h)
    hess = np.zeros((n + 1, n + 1))
    for k in range(-_HESS_BW, _HESS_BW + 1):
        hess += np.diag(ab[_HESS_BW + k, max(0, -k):n + 1 - max(0, k)], -k)
    v = zero.copy()
    v[1:-1] = np.linalg.solve(hess[1:-1, 1:-1],
                              1e-6 * trapezoid_weights(grid)[1:-1])
    u = GridFunction(grid, v)
    obstacle = table_obstacle(u)
    report = check_critical(u, obstacle)
    assert report.stationarity_inactive == 0.0 and report.multiplier_min > 0.0
    assert report.vi_residual > 0.0
    assert report.vi_residual == _vi_reference(u, obstacle)


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


@pytest.mark.parametrize("height", [1e-210, 1e-300])
def test_a_cone_below_the_lowest_served_height_is_a_range_error(
        tmp_path, capsys, height):
    """Below 3.6e-209 the height table's products underflow, so the table
    is refused up front: a RangeError naming the lowest height served, and
    `critical` exits 2 with an `error:` line, where it exited 3 with
    "height table is not strictly increasing". The lowest height served
    still builds its point."""
    from bendflow.cli import main

    message = f"height {height:g} is below 3.6e-209, the lowest served"
    with pytest.raises(RangeError) as excinfo:
        critical_profile(height, UniformGrid(16))
    assert str(excinfo.value) == message
    assert main(["critical", "--height", f"{height:g}", "--n", "16",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / "critical_profile.csv").exists()
    cp = critical_profile(critical._H_MIN, UniformGrid(16))
    assert not cp.failures()


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


def test_failures_name_each_failed_test(cp005):
    """The verdict `bendflow critical` and validate's critical_point check
    read: none on the height-0.05 point, and over a cone too tall for the
    grid one message each for the VI check, concavity and the cone tip."""
    assert cp005.failures() == []
    tall = critical_profile(0.8, UniformGrid(64))
    failed = tall.failures()
    assert [m.split(" ")[0] for m in failed] == ["vi_residual",
                                                 "concavity_min", "u(1/2)"]
    rep = tall.report
    assert failed[0] == (f"vi_residual {rep.vi_residual:.15g} is below "
                         f"-1e-05 * scale {rep.scale:.15g}")
    assert failed[2].endswith(" is off the cone tip 0.8")


# The flow on data the acceptance suite never gives it: asymmetric data over
# a symmetric cone (the paper's convergence asks no symmetry of the data),
# and an asymmetric cone. At N = 100 and tau = 1e-5 these runs come to rest
# by step 1,561, so t_end = 0.02 (2,000 steps) ends each run at rest.
_GRID100 = UniformGrid(100)
_TO_REST = FlowConfig(tau=1e-5, t_end=0.02)


@pytest.fixture(scope="module")
def cp002_n100():
    return critical_profile(0.02, _GRID100)


@settings(max_examples=1, deadline=None)
@given(c=st.floats(0.3, 0.7), b=st.floats(-0.03, 0.03))
@example(c=0.3, b=0.005)
@example(c=0.5, b=0.01)
@example(c=0.5, b=-0.02)
def test_asymmetric_start_over_a_symmetric_cone_rests_at_the_critical_point(
        cp002_n100, c, b):
    """u_c(c) + b sin(pi x) sin(2 pi x), admissible and with E0 below
    c0^2/4, comes to rest at the symmetric critical point. Measured on the
    examples and on c in [0.3, 0.9], |b| <= 0.03: at rest from step 548 to
    1,177 on, at a sup distance of 2.4e-10 to 5.8e-10."""
    x = _GRID100.nodes
    v = (u_c_profile(c, _GRID100).values
         + b * np.sin(np.pi * x) * np.sin(2.0 * np.pi * x))
    v[0] = v[-1] = 0.0
    u0 = GridFunction(_GRID100, v)
    obstacle = cone_obstacle(0.02, _GRID100)
    assume(np.all(v >= obstacle.samples.values)
           and energy(u0) < c0() ** 2 / 4.0)
    traj = run_flow(u0, obstacle, _TO_REST)
    assert traj.step_norms[-1] == 0.0  # at rest
    final = traj.iterates[-1].values
    assert float(np.max(np.abs(final - cp002_n100.profile.values))) <= 1e-9


@settings(max_examples=1, deadline=None)
@given(a=st.floats(0.33, 0.67))
@example(a=0.33)
@example(a=0.40)
@example(a=0.45)
@example(a=0.56)
def test_flow_over_a_tilted_cone_rests_at_a_critical_point(a):
    """Over psi = 0.02 (1 - |x - a| / (0.8 min(a, 1 - a))) the flow from
    u_c(0.5) comes to rest at a point check_critical accepts. Measured on
    a in [0.3, 0.7]: at rest from step 819 to 1,561 on, and vi_residual at
    1.4% to 3.4% of its bound -VI_TOL * scale; the test asks for a tenth
    of it."""
    x = _GRID100.nodes
    psi = 0.02 * (1.0 - np.abs(x - a) / (0.8 * min(a, 1.0 - a)))
    obstacle = table_obstacle(GridFunction(_GRID100, psi))
    traj = run_flow(u_c_profile(0.5, _GRID100), obstacle, _TO_REST)
    assert traj.step_norms[-1] == 0.0  # at rest
    rep = check_critical(traj.iterates[-1], obstacle)
    assert rep.vi_residual >= -0.1 * critical.VI_TOL * rep.scale  # passes_vi


# Well-posedness on nearby data: starts u_c(c) and u_c(c) + eps phi over the
# cone of height 0.02, 100 steps of tau = 1e-5 (0.04-0.08 s a run).
_NEARBY = FlowConfig(tau=1e-5, t_end=1e-3)


@functools.lru_cache(maxsize=None)
def _nearby_base(c):
    """u(1e-3) from u_c(c), one run per c."""
    return run_flow(u_c_profile(c, _GRID100), cone_obstacle(0.02, _GRID100),
                    _NEARBY).iterates[-1].values


@settings(max_examples=2, deadline=None)
@given(c=st.sampled_from([0.5, 0.7]), p=st.floats(0.0, 1.0),
       e1=st.floats(-6.0, -2.0), e2=st.floats(-6.0, -2.0))
@example(c=0.5, p=1.0, e1=-2.0, e2=-6.0)
@example(c=0.7, p=1.0, e1=-2.0, e2=-6.0)
def test_gap_to_nearby_data_does_not_depend_on_its_size(c, p, e1, e2):
    """The gap ratio ||u_eps(t) - u(t)|| / ||eps phi|| at t = 1e-3, in the
    trapezoid L^2 norm, from u_c(c) + eps phi with phi = x(1-x)(1+px) >= 0,
    moves by at most 0.2 |eps1 - eps2| between two sizes eps = 10^e: the
    gap is linear in eps to first order. Measured for eps = 1e-2 ... 1e-6:
    0.8382 ... 0.8369 (c = 0.5) and 0.8585 ... 0.8568 (c = 0.7) at p = 1,
    0.8443 ... 0.8435 and 0.8646 ... 0.8636 at p = 0, so slopes 0.08 to
    0.17; the 1e-5 allows for the solver's rounding at eps = 1e-6."""
    x = _GRID100.nodes
    phi = x * (1.0 - x) * (1.0 + p * x)
    weights = trapezoid_weights(_GRID100)
    obstacle = cone_obstacle(0.02, _GRID100)
    sizes = (10.0 ** e1, 10.0 ** e2)
    ratios = []
    for eps in sizes:
        v = u_c_profile(c, _GRID100).values + eps * phi
        u = run_flow(GridFunction(_GRID100, v), obstacle, _NEARBY).iterates[-1]
        gap = u.values - _nearby_base(c)
        ratios.append(math.sqrt((weights @ gap**2)
                                / (weights @ (eps * phi)**2)))
    assert abs(ratios[0] - ratios[1]) <= 0.2 * abs(sizes[0] - sizes[1]) + 1e-5
