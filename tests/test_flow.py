import importlib.util
import math
import traceback
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bendflow import (
    ConvergenceError,
    DomainError,
    FlowConfig,
    GridFunction,
    Obstacle,
    StepConvergenceError,
    Trajectory,
    UniformGrid,
    cone_obstacle,
    constant_obstacle,
    critical_profile,
    derivative_tables,
    dissipation_report,
    energy,
    energy_gradient,
    g,
    interpolate_linear,
    l2_norm,
    mm_step,
    run_flow,
    symmetry_residual,
    touch_window,
    trapezoid_weights,
    u_c_profile,
)

from conftest import kernel_point, mirrored

# the recipe of ROADMAP.md ("Random draws"), as the golden fingerprints draw it
_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.fixture(scope="module")
def cone_run():
    """Short acceptance-style run shared by several tests."""
    grid = UniformGrid(100)
    obstacle = cone_obstacle(0.02, grid)
    u0 = u_c_profile(0.5, grid)
    cfg = FlowConfig(tau=1e-3, t_end=0.1)
    traj = run_flow(u0, obstacle, cfg)
    return traj, cfg, obstacle, u0


def test_mm_step_trivial_at_zero():
    grid = UniformGrid(32)
    obstacle = constant_obstacle(-1.0, grid)
    cfg = FlowConfig(tau=1e-4, t_end=1e-4)
    u, report = mm_step(GridFunction.zeros(grid), obstacle, cfg)
    assert np.array_equal(u.values, np.zeros(grid.n + 1))
    assert report.natural_residual == 0.0
    assert report.stationarity_residual == 0.0
    assert report.active_set.size == 0


def test_mm_step_unconstrained_implicit_euler():
    grid = UniformGrid(100)
    obstacle = constant_obstacle(-1.0, grid)
    f = mirrored(grid, lambda x: 1e-3 * math.sin(math.pi * x))
    cfg = FlowConfig(tau=1e-4, t_end=1e-4)
    u, report = mm_step(f, obstacle, cfg)
    # no contact: the step solves the implicit Euler equation of -grad E
    assert report.active_set.size == 0
    resid = (u.values - f.values) / cfg.tau + energy_gradient(u).values
    assert float(np.max(np.abs(resid[1:-1]))) <= cfg.inner_tol * report.scale


def test_mm_step_decrease_and_stanminimov():
    grid = UniformGrid(100)
    obstacle = cone_obstacle(0.05, grid)
    f = u_c_profile(0.8, grid)
    assert np.all(f.values >= obstacle.samples.values)
    cfg = FlowConfig(tau=1e-3, t_end=1e-3)
    u, report = mm_step(f, obstacle, cfg)
    w = trapezoid_weights(grid)
    pen = float(np.sum(w * (u.values - f.values) ** 2)) / (2 * cfg.tau)
    ef, eu = energy(f), energy(u)
    assert eu + pen <= ef + 1e-11          # Phi decrease
    assert pen <= ef - eu + 1e-11          # per-step square-sum bound
    assert np.all(u.values >= obstacle.samples.values)
    assert u.values[0] == 0.0 and u.values[-1] == 0.0


def test_mm_step_rejects_inadmissible():
    grid = UniformGrid(32)
    obstacle = cone_obstacle(0.05, grid)
    below = GridFunction.zeros(grid)  # 0 < psi at the midpoint
    cfg = FlowConfig(tau=1e-3, t_end=1e-3)
    with pytest.raises(DomainError):
        mm_step(below, obstacle, cfg)
    bad_ends = GridFunction(grid, np.ones(grid.n + 1))
    with pytest.raises(DomainError):
        mm_step(bad_ends, constant_obstacle(-2.0, grid), cfg)


def test_grid_mismatch_is_one_domain_error():
    from bendflow import GridMismatchError, check_critical, first_variation

    grid, other = UniformGrid(32), UniformGrid(64)
    u0 = u_c_profile(0.5, grid)
    far = cone_obstacle(0.02, other)
    cfg = FlowConfig(tau=1e-3, t_end=1e-3)
    calls = (lambda: mm_step(u0, far, cfg),
             lambda: run_flow(u0, far, cfg),
             lambda: check_critical(u0, far),
             lambda: first_variation(u0, u_c_profile(0.5, other)))
    for call in calls:
        with pytest.raises(GridMismatchError) as excinfo:
            call()
        assert isinstance(excinfo.value, DomainError)


def test_mm_step_nonconvergence_carries_partial():
    grid = UniformGrid(100)
    obstacle = cone_obstacle(0.02, grid)
    u0 = u_c_profile(0.5, grid)
    cfg = FlowConfig(tau=1e-3, t_end=1.0, inner_max_iter=0)
    with pytest.raises(StepConvergenceError) as excinfo:
        mm_step(u0, obstacle, cfg)
    assert excinfo.value.partial is not None
    with pytest.raises(StepConvergenceError) as excinfo:
        run_flow(u0, obstacle, cfg)
    assert excinfo.value.step_index == 0


def test_one_stencil_pass_per_trial_point(cone_run, monkeypatch):
    """Within a step every consumer at a trial point reads the tables built
    for its Phi evaluation, and each exact Phi change builds the tables of
    its step dv: the stencils run once per Phi evaluation plus once per
    Phi change."""
    import bendflow.discretization as disc_mod
    import bendflow.flow as flow_mod

    traj, cfg, obstacle, u0 = cone_run
    counts = {"_derivative_tables": 0, "_energy_raw": 0, "_phi_change": 0}
    for mod, name in ((disc_mod, "_derivative_tables"),
                      (disc_mod, "_energy_raw"), (flow_mod, "_phi_change")):
        original = getattr(mod, name)

        def counted(*args, _name=name, _fn=original):
            counts[_name] += 1
            return _fn(*args)
        for target in {mod, flow_mod}:
            monkeypatch.setattr(target, name, counted)

    for start, newton in ((traj.iterates[-1], False), (u0, True)):
        for name in counts:
            counts[name] = 0
        _, report = mm_step(start, obstacle, cfg)
        assert (report.inner_iterations > 0) == newton
        assert counts["_energy_raw"] >= 1
        assert (counts["_phi_change"] > 0) == newton
        assert counts["_derivative_tables"] == (counts["_energy_raw"]
                                                + counts["_phi_change"])


def test_each_power_formed_once_per_point(cone_run, monkeypatch):
    """Within a step, and across a step it hands its evaluation to, the
    powers s^(-5/2) and s^(-7/2) of s = 1 + u'^2 are each formed at most
    once per point: the energy forms the one, the gradient the other, and
    every later reader at that point (the gradient, the Hessian, the exact
    Phi change) is handed those very arrays. Covers a loud cone step, the
    step chained after it, and a quiet step that walks with the exact Phi
    change."""
    import bendflow.flow as flow_mod

    s25, s35 = {}, {}  # point (its tables' bits) -> the power formed there
    originals = {name: getattr(flow_mod, name) for name in (
        "_energy_raw", "_energy_gradient_raw", "_energy_hessian_bands",
        "_phi_change")}

    def key(up, upp):
        return up.tobytes() + upp.tobytes()

    def energy(up, upp, h):
        out = originals["_energy_raw"](up, upp, h)
        assert key(up, upp) not in s25
        s25[key(up, upp)] = out[1]
        return out

    def gradient(up, upp, p25, h):
        assert p25 is s25[key(up, upp)]
        out = originals["_energy_gradient_raw"](up, upp, p25, h)
        assert key(up, upp) not in s35
        s35[key(up, upp)] = out[1]
        return out

    def hessian(up, upp, p25, p35, h):
        assert p25 is s25[key(up, upp)] and p35 is s35[key(up, upp)]
        return originals["_energy_hessian_bands"](up, upp, p25, p35, h)

    changes = []

    def change(vt, v, ev, f, h, tau):
        assert ev.powers[0] is s25[key(*ev.tables)]
        changes.append(None)
        return originals["_phi_change"](vt, v, ev, f, h, tau)

    for name, fn in (("_energy_raw", energy), ("_energy_gradient_raw", gradient),
                     ("_energy_hessian_bands", hessian), ("_phi_change", change)):
        monkeypatch.setattr(flow_mod, name, fn)

    _, cfg, obstacle, u0 = cone_run
    carry = [None]
    u1, first = mm_step(u0, obstacle, cfg, carry=carry)
    _, second = mm_step(u1, obstacle, cfg, carry=carry)
    assert first.inner_iterations > 0 and second.inner_iterations > 0
    grid = UniformGrid(1600)
    s25.clear()
    s35.clear()
    _, quiet = mm_step(u_c_profile(0.5, grid), cone_obstacle(0.02, grid),
                       FlowConfig(tau=1e-7, t_end=1e-7))
    assert changes and quiet.satisfies(1e-8)


def test_each_trial_point_evaluated_once(cone_run, monkeypatch):
    """The line search walks the projected arc once per Newton iteration:
    no point is evaluated twice within a step, and the walk ends before a
    point equal to the iterate, which neither acceptance test can take.
    Holds whether the step converges or not."""
    import bendflow.discretization as disc_mod
    import bendflow.flow as flow_mod

    seen = []
    original = disc_mod._derivative_tables

    def recorded(u, h):
        seen.append(u.tobytes())
        return original(u, h)
    monkeypatch.setattr(flow_mod, "_derivative_tables", recorded)

    _, cfg, obstacle, u0 = cone_run
    grid = UniformGrid(1600)
    cases = ((u0, obstacle, cfg),
             (u_c_profile(0.5, grid), cone_obstacle(0.02, grid),
              FlowConfig(tau=1e-7, t_end=1e-7)))
    for f, obst, step_cfg in cases:
        seen.clear()
        try:
            mm_step(f, obst, step_cfg)
        except StepConvergenceError:
            pass
        assert len(seen) > 1
        assert len(set(seen)) == len(seen)


def _random_admissible(n, seed, height):
    """max(psi, random sine sum) on the cone, pinned at the ends."""
    rng = np.random.default_rng(seed)
    grid = UniformGrid(n)
    obstacle = cone_obstacle(height, grid)
    x = grid.nodes
    s = sum(rng.uniform(-0.1, 0.2) * np.sin(k * np.pi * x) for k in range(1, 5))
    u0 = np.maximum(obstacle.samples.values, s)
    u0[0] = u0[-1] = 0.0
    return GridFunction(grid, u0), obstacle


def _stepwise_flow(u0, obstacle, cfg):
    """run_flow's record rebuilt from public mm_step and energy calls, with
    nothing carried from one step to the next."""
    w = trapezoid_weights(u0.grid)
    iterates, energies, norms, reports = [u0], [energy(u0)], [], []
    for k in range(int(round(cfg.t_end / cfg.tau))):
        u = iterates[-1]
        try:
            un, report = mm_step(u, obstacle, cfg)
        except StepConvergenceError as err:
            err.step_index = k
            raise
        norms.append(float(np.sqrt(np.sum(w * (un.values - u.values) ** 2))))
        iterates.append(un)
        energies.append(energy(un))
        reports.append(report)
    return iterates, energies, norms, reports


def _assert_carrying_exact(u0, obstacle, cfg):
    """run_flow, which hands each accepted iterate's evaluation to the next
    step, measures an iterate that did not move only once and stops calling
    the solver once a step returns its input, records the same bits as the
    step-by-step loop and as a fresh measurement of each iterate, failures
    too. Returns run_flow's trajectory, or None after a failure."""
    try:
        iterates, energies, norms, reports = _stepwise_flow(u0, obstacle, cfg)
    except StepConvergenceError as err:
        with pytest.raises(StepConvergenceError) as excinfo:
            run_flow(u0, obstacle, cfg)
        got = excinfo.value
        assert (str(got), got.step_index) == (str(err), err.step_index)
        assert got.partial.tobytes() == err.partial.tobytes()
        return
    traj = run_flow(u0, obstacle, cfg)
    assert ([u.values.tobytes() for u in traj.iterates]
            == [u.values.tobytes() for u in iterates])
    assert traj.energies.tobytes() == np.array(energies).tobytes()
    assert traj.step_norms.tobytes() == np.array(norms).tobytes()
    psi = obstacle.samples.values
    ctol = 10.0 * cfg.inner_tol * math.sqrt(u0.grid.h)
    counts = [int(np.sum((u.values - psi) <= ctol)) for u in iterates]
    assert traj.coincidence_counts.tobytes() == np.array(counts).tobytes()
    sym = [symmetry_residual(u) for u in iterates]
    assert traj.symmetry_residuals.tobytes() == np.array(sym).tobytes()
    for got, want in zip(traj.kkt_reports, reports, strict=True):
        _assert_same_report(got, want)
    return traj


def _assert_same_report(got, want):
    """Every KKTReport field equal bit for bit."""
    for name, value in vars(want).items():
        assert (np.asarray(getattr(got, name)).tobytes()
                == np.asarray(value).tobytes()), name


def test_carrying_exact_on_cone_from_newton_to_rest(cone_run):
    traj, cfg, obstacle, u0 = cone_run
    assert traj.inner_iterations[0] > 0 and traj.inner_iterations[-1] == 0
    _assert_carrying_exact(u0, obstacle, cfg)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(16, 64), seed=st.integers(0, 2**32 - 1),
       log_tau=st.floats(-7.0, -3.0), height=st.floats(0.005, 0.1))
def test_carrying_exact_on_random_admissible_data(n, seed, log_tau, height):
    u0, obstacle = _random_admissible(n, seed, height)
    tau = 10.0 ** log_tau
    _assert_carrying_exact(u0, obstacle, FlowConfig(tau=tau, t_end=6 * tau))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(16, 64), seed=st.integers(0, 2**32 - 1),
       log_tau=st.floats(-7.0, -3.0), height=st.floats(0.005, 0.1))
def test_kkt_certificate_on_random_admissible_data(n, seed, log_tau, height):
    """Every step of a run certifies the discrete variational inequality,
    or the run stops with a typed failure that says where it stopped and
    carries an admissible partial iterate."""
    u0, obstacle = _random_admissible(n, seed, height)
    psi = obstacle.samples.values
    tau = 10.0 ** log_tau
    cfg = FlowConfig(tau=tau, t_end=10 * tau)
    try:
        traj = run_flow(u0, obstacle, cfg)
    except StepConvergenceError as err:
        assert err.step_index in range(10)
        assert err.partial.shape == (n + 1,) and np.all(err.partial >= psi)
        return
    assert traj.n_steps == 10
    assert all(r.satisfies(cfg.inner_tol) for r in traj.kkt_reports)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(16, 64), seed=st.integers(0, 2**32 - 1),
       log_tau=st.floats(-7.0, -3.0), p_active=st.floats(0.0, 0.5))
def test_pinned_end_newton_system(n, seed, log_tau, p_active):
    """The Newton system on all n+1 nodes, with the ends pinned as active
    rows of gap 0: the ends do not move, active nodes land exactly on the
    bound, and the free nodes solve the free block of the Hessian. Pinning
    the Hessian's seven bands clears the offset-3 pair and leaves the bits
    of the pentadiagonal system the step pins."""
    import bendflow.discretization as disc_mod
    import bendflow.flow as flow_mod

    rng = np.random.default_rng(seed)
    grid = UniformGrid(n)
    h, tau = grid.h, 10.0 ** log_tau
    psi = cone_obstacle(0.05, grid).samples.values
    x = grid.nodes
    s = sum(rng.uniform(-0.1, 0.2) * np.sin(k * np.pi * x) for k in range(1, 5))
    v = np.maximum(psi, s)
    v[0] = v[-1] = 0.0
    w = disc_mod._trapezoid_weights(n, h)
    tables, r, powers = kernel_point(v, h)
    full = disc_mod._energy_hessian_bands(*tables, *powers, h)
    full[disc_mod._HESS_BW, :] += w / tau
    dense = np.zeros((n + 1, n + 1))
    for k in range(-disc_mod._HESS_BW, 1):
        for j in range(-k, n + 1):
            dense[j + k, j] = dense[j, j + k] = full[disc_mod._HESS_BW + k, j]
    r[0] = r[-1] = 0.0
    act = rng.uniform(size=n + 1) < p_active
    act[0] = act[-1] = True
    gap = v - psi
    gap[0] = gap[-1] = 0.0
    free = ~act
    block = dense[np.ix_(free, free)]
    # positive definite, and conditioned well enough (below 1e7) that any
    # backward-stable solve is good to 1e-9 relative
    eig = np.linalg.eigvalsh(block) if free.any() else np.zeros(1)
    assume(eig[0] > 1e-7 * eig[-1])

    rhs = -(w * r)
    want = np.linalg.solve(block, rhs[free])
    # only the end rows fill the offset-3 bands, so pinning clears them and
    # the step's system has bandwidth 2
    pinned, pinned_rhs = full.copy(), rhs.copy()
    _pin_active_reference(pinned, pinned_rhs, act, gap)
    assert not pinned[0].any() and not pinned[-1].any()
    ab = full[1:-1]
    flow_mod._pin_active(ab, rhs, act, gap)
    assert ab.tobytes() == pinned[1:-1].tobytes()
    assert rhs.tobytes() == pinned_rhs.tobytes()
    d = flow_mod._solve_banded_mirror(ab, rhs)
    assert d[0] == 0.0 and d[-1] == 0.0
    assert np.array_equal(d[act], -gap[act])
    assert np.max(np.abs(d[free] - want)) <= 1e-9 * np.max(np.abs(want))


def _pin_active_reference(ab, rhs, act, gap):
    """The pinning as first written: boolean masks over all n + 1 nodes."""
    bw = ab.shape[0] // 2
    ni = ab.shape[1]
    for k in range(1, bw + 1):
        pair = act[:ni - k] | act[k:]  # node j or node j + k is active
        ab[bw + k, :ni - k][pair] = 0.0
        ab[bw - k, k:][pair] = 0.0
    ab[bw, act] = 1.0
    rhs[act] = -gap[act]


@settings(max_examples=200, deadline=None)
@given(act=st.lists(st.booleans(), min_size=5, max_size=41),
       seed=st.integers(0, 2**32 - 1))
@example(act=[False] * 5, seed=0)  # n = 4: the end rows overlap
@example(act=[False, True, True, False, False, False], seed=1)
@example(act=[True] * 7, seed=2)
@example(act=[False, True] * 8, seed=3)
@example(act=[False] * 3 + [True] * 6 + [False] * 3, seed=4)
def test_pin_active_matches_the_mask_reference(act, seed):
    """Pinning by index gives the bits of `ab` and `rhs` that the boolean
    masks give, for n from 4 to 40 (the end rows overlap below 7), with
    random active sets, runs of adjacent active nodes, and both ends always
    active. Signed zeros and the unused corners of the band array are kept
    as they were."""
    import bendflow.flow as flow_mod

    act = np.array(act)
    act[0] = act[-1] = True
    rng = np.random.default_rng(seed)
    ni = len(act)
    ab = rng.standard_normal((2 * flow_mod._BW + 1, ni))
    ab[rng.uniform(size=ab.shape) < 0.1] = -0.0
    rhs, gap = rng.standard_normal(ni), rng.standard_normal(ni)
    want_ab, want_rhs = ab.copy(), rhs.copy()
    _pin_active_reference(want_ab, want_rhs, act, gap)
    flow_mod._pin_active(ab, rhs, act, gap)
    assert ab.tobytes() == want_ab.tobytes()
    assert rhs.tobytes() == want_rhs.tobytes()


def test_same_bits_tells_signed_zeros_apart():
    """_same_bits compares bits, not values: -0.0 differs from 0.0, also
    against a reversed view, as the mirrored solve compares."""
    import bendflow.flow as flow_mod

    a = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, -0.0]])
    b = a.copy()
    assert flow_mod._same_bits(a, b)
    b[1, 2] = 0.0
    assert (a == b).all() and not flow_mod._same_bits(a, b)
    c = np.array([0.0, 1.0, -0.0])
    assert (c == c[::-1]).all() and not flow_mod._same_bits(c, c[::-1])
    assert flow_mod._same_bits(c[1:], c[1:].copy())


def _newton_system(v, psi, h, tau, act):
    """The pinned Newton system of Phi at v, as the step builds it."""
    import bendflow.discretization as disc_mod
    import bendflow.flow as flow_mod

    n = len(v) - 1
    w = disc_mod._trapezoid_weights(n, h)
    tables, g, powers = kernel_point(v, h)
    ab = disc_mod._energy_hessian_bands(*tables, *powers, h)[1:-1]
    ab[flow_mod._BW, :] += w / tau
    rhs = -(w * g)
    rhs[0] = rhs[-1] = 0.0
    gap = v - psi
    gap[0] = gap[-1] = 0.0
    flow_mod._pin_active(ab, rhs, act, gap)
    return ab, rhs


def _two_solve_reference(ab, b):
    """The mirror-averaged solve of the pinned pentadiagonal system as two
    solveh_banded calls at the Hessian's full bandwidth 3, with the zero
    offset-3 bands that pinning the ends leaves."""
    from scipy.linalg import solveh_banded

    import bendflow.discretization as disc_mod
    import bendflow.flow as flow_mod

    bw = disc_mod._HESS_BW
    full = np.zeros((2 * bw + 1, ab.shape[1]))
    full[bw - flow_mod._BW:bw + flow_mod._BW + 1] = ab
    d1 = solveh_banded(full[:bw + 1], b, lower=False)
    mirrored = flow_mod._mirror_bands(full)[:bw + 1]
    d2 = solveh_banded(mirrored, b[::-1], lower=False)[::-1]
    return 0.5 * (d1 + d2)


def test_one_factorisation_per_symmetric_newton_system(monkeypatch):
    """A mirror-symmetric system (upper bands equal to those of its mirror
    bit for bit, palindromic right-hand side) is factored once, any other
    twice; both give the bits of the two-solve full-band reference."""
    import bendflow.flow as flow_mod

    calls = []
    pbtrf = flow_mod._PBTRF

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0] - 1)  # bandwidth factored
        return pbtrf(*args, **kwargs)
    monkeypatch.setattr(flow_mod, "_PBTRF", counted)

    grid = UniformGrid(200)
    sym = (u_c_profile(0.5, grid), cone_obstacle(0.02, grid))
    rand = _random_admissible(40, 7, 0.02)
    for (f, obst), factorisations in ((sym, 1), (rand, 2)):
        ends = np.zeros(f.grid.n + 1, dtype=bool)
        ends[0] = ends[-1] = True
        ab, rhs = _newton_system(f.values, obst.samples.values, f.grid.h,
                                 1e-7, ends)
        calls.clear()
        d = flow_mod._solve_banded_mirror(ab, rhs)
        assert calls == [2] * factorisations
        assert d.tobytes() == _two_solve_reference(ab, rhs).tobytes()


def _flow_outcome(u0, obstacle, cfg):
    """Every recorded bit of a run, or of its typed failure."""
    try:
        traj = run_flow(u0, obstacle, cfg)
    except StepConvergenceError as err:
        return ("failed", str(err), err.step_index, err.partial.tobytes())
    reports = [tuple(np.asarray(value).tobytes() for value in vars(r).values())
               for r in traj.kkt_reports]
    return ([u.values.tobytes() for u in traj.iterates],
            traj.energies.tobytes(), traj.step_norms.tobytes(), reports)


def _assert_same_bits_as_reference_solve(u0, obstacle, cfg):
    from unittest import mock

    import bendflow.flow as flow_mod

    got = _flow_outcome(u0, obstacle, cfg)
    with mock.patch.object(flow_mod, "_solve_banded_mirror", _two_solve_reference):
        want = _flow_outcome(u0, obstacle, cfg)
    assert got == want


@pytest.mark.parametrize("n", [200, 400])
def test_solve_bit_identical_to_reference_on_u_c(n):
    """The one-factorisation, trimmed-band solve changes no bit of a run."""
    grid = UniformGrid(n)
    _assert_same_bits_as_reference_solve(
        u_c_profile(0.5, grid), cone_obstacle(0.02, grid),
        FlowConfig(tau=1e-5, t_end=20e-5))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(16, 64), seed=st.integers(0, 2**32 - 1),
       log_tau=st.floats(-7.0, -3.0), height=st.floats(0.005, 0.1))
@example(n=63, seed=4138934882, log_tau=math.log10(4e-7), height=0.0508)
def test_solve_bit_identical_to_reference_on_random_data(n, seed, log_tau, height):
    u0, obstacle = _random_admissible(n, seed, height)
    tau = 10.0 ** log_tau
    _assert_same_bits_as_reference_solve(u0, obstacle,
                                          FlowConfig(tau=tau, t_end=10 * tau))


def _spd_band_system(kd, n, seed, zero_frac, pinned_frac):
    """Upper band rows (outermost of kd first) of a random symmetric,
    strictly diagonally dominant matrix of order n whose pinned rows and
    columns are the identity and whose band holds exact zeros of both
    signs, and a right-hand side that holds them too."""
    rng = np.random.default_rng(seed)

    def signed_zeros(x):
        hit = rng.random(x.size) < zero_frac
        x[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
        return x

    pinned = rng.random(n) < pinned_frac
    upper = np.zeros((kd + 1, n))
    for k in range(1, kd + 1):
        band = signed_zeros(rng.uniform(-1.0, 1.0, n - k))
        band[pinned[:-k] | pinned[k:]] = 0.0
        upper[kd - k, k:] = band
    off = np.zeros(n)
    for k in range(1, kd + 1):
        off[k:] += np.abs(upper[kd - k, k:])
        off[:-k] += np.abs(upper[kd - k, k:])
    upper[kd] = np.where(pinned, 1.0, off + 10.0 ** rng.uniform(-3.0, 0.0, n))
    return upper, signed_zeros(rng.normal(size=n))


def _reference_pbsv():
    """LAPACK dpbsv as scipy.linalg hands it out for float64."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("pbsv",), (np.zeros((1, 1)),))[0]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(17, 3201), seed=st.integers(0, 2**32 - 1))
@example(n=17, seed=0)
@example(n=3201, seed=1)
def test_loaded_pbsv_gives_the_bits_of_scipys_pbsv(n, seed):
    """flow's dpbtrf and dpbtrs, loaded from scipy's compiled LAPACK wrapper
    by its file, are the routines scipy.linalg, imported after flow, finds
    in the extension flow registered; and _cholesky_solve, which factors in
    lower band storage, gives the x of scipy's dpbsv bit for bit."""
    import sys

    import bendflow.flow as flow_mod

    module = sys.modules["scipy.linalg._flapack"]
    assert (module.dpbtrf, module.dpbtrs) == (flow_mod._PBTRF, flow_mod._PBTRS)
    ab, b = _spd_band_system(3, n, seed, 0.0, 0.0)
    _, want, info = _reference_pbsv()(ab, b)
    assert info == 0
    assert flow_mod._cholesky_solve(ab, b).tobytes() == want.tobytes()


def test_loaded_pbsv_reports_an_indefinite_system():
    """A negative pivot gives scipy's dpbsv info > 0, and _cholesky_solve
    raises LinAlgError naming the same leading minor."""
    import bendflow.flow as flow_mod

    ab, b = _spd_band_system(3, 40, 3, 0.0, 0.0)
    ab[3, 17] = -1.0
    info = _reference_pbsv()(ab, b)[2]
    assert info > 0
    with pytest.raises(np.linalg.LinAlgError, match=f"^{info}th leading minor"):
        flow_mod._cholesky_solve(ab, b)


def _newton_systems(run):
    """Every system a short run hands _cholesky_solve: ("ladder", c, n) is
    u_c(c) on the 0.02 cone for 20 steps at each ladder tau, ("draw", seed,
    symmetric) the recipe draw for ten steps."""
    import bendflow.flow as flow_mod

    if run[0] == "ladder":
        grid = UniformGrid(run[2])
        cases = [(u_c_profile(run[1], grid), cone_obstacle(0.02, grid), tau)
                 for tau in regen.LADDER_TAUS]
        steps = 20
    else:
        u0, obstacle, tau = regen.random_draw(run[1], run[2])
        cases, steps = [(GridFunction(obstacle.grid, u0), obstacle, tau)], 10
    seen = []

    def recorded(upper, b):
        seen.append((upper.copy(), b.copy()))
        return solve(upper, b)
    solve = flow_mod._cholesky_solve
    with mock.patch.object(flow_mod, "_cholesky_solve", recorded):
        for u0, obstacle, tau in cases:
            try:
                run_flow(u0, obstacle, FlowConfig(tau=tau, t_end=steps * tau))
            except StepConvergenceError:
                pass  # the systems it solved still count
    return seen


@settings(max_examples=40, deadline=None)
@given(system=st.tuples(st.sampled_from([2, 3]), st.integers(4, 200),
                        st.integers(0, 2**32 - 1), st.floats(0.0, 0.5),
                        st.floats(0.0, 0.5)))
@example(system=("ladder", 0.5, 200))
@example(system=("draw", 0, False))
@example(system=("draw", 1, True))
@example(system=("draw", 22, False))
def test_cholesky_solve_matches_pbsv(system):
    """_cholesky_solve gives dpbsv's solution: in value on random SPD band
    systems with kd = 2, 3, pinned identity rows and exact zeros of both
    signs (OpenBLAS skips zero updates, so a zero's sign may differ), and
    bit for bit on every Newton system of the examples' runs, factorable
    or not."""
    import bendflow.flow as flow_mod

    pbsv = _reference_pbsv()
    if isinstance(system[0], str):
        seen = _newton_systems(system)
        assert seen
        for upper, b in seen:
            _, want, info = pbsv(upper, b)
            if info > 0:
                with pytest.raises(np.linalg.LinAlgError):
                    flow_mod._cholesky_solve(upper, b)
            else:
                assert flow_mod._cholesky_solve(upper, b).tobytes() == want.tobytes()
        return
    upper, b = _spd_band_system(*system)
    _, want, info = pbsv(upper, b)
    assert info == 0
    assert np.array_equal(flow_mod._cholesky_solve(upper, b), want)


def test_steps_at_rest_do_no_kernel_work(cone_run, monkeypatch):
    """Each step starts from the evaluation the previous step made of its
    accepted point, so steps at rest build no tables and evaluate neither
    E_h nor its gradient: kernel calls do not grow with the step count."""
    import bendflow.discretization as disc_mod
    import bendflow.flow as flow_mod

    traj, cfg, obstacle, _ = cone_run
    rest = traj.iterates[-1]
    names = ("_derivative_tables", "_energy_raw", "_energy_gradient_raw")
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(disc_mod, name)

        def counted(*args, _name=name, _fn=original):
            counts[_name] += 1
            return _fn(*args)
        for mod in (disc_mod, flow_mod):
            monkeypatch.setattr(mod, name, counted)

    seen = []
    for k in (5, 50):
        counts.update(dict.fromkeys(names, 0))
        run = run_flow(rest, obstacle, FlowConfig(tau=cfg.tau, t_end=k * cfg.tau))
        assert run.n_steps == k and not run.inner_iterations.any()
        seen.append(dict(counts))
    assert seen[0] == seen[1]


def test_step_at_rest_returns_its_input_and_certifies_it(cone_run):
    """A step that accepts its start after no Newton iteration returns the
    input object itself, with or without a carried evaluation, and its
    report equals, bit for bit, that of a step from a fresh copy."""
    traj, cfg, obstacle, _ = cone_run
    rest = traj.iterates[-1]
    carry = [None]
    first, _ = mm_step(rest, obstacle, cfg, carry=carry)
    again, report = mm_step(first, obstacle, cfg, carry=carry)
    assert first is rest and again is rest
    _, fresh = mm_step(GridFunction(rest.grid, rest.values.copy()), obstacle, cfg)
    _assert_same_report(report, fresh)


def test_one_values_array_per_move_and_one_report_per_step(cone_run):
    """Each step records a report, and steps at rest share their input's
    values array and its report: the first step at rest makes one report,
    which every later step records again."""
    traj, _, _, _ = cone_run
    moving = int(np.count_nonzero(traj.inner_iterations))
    assert traj.n_steps == 100 and 0 < moving < traj.n_steps
    assert len({id(u.values) for u in traj.iterates}) == 1 + moving
    assert len(traj.kkt_reports) == traj.n_steps
    assert len({id(r) for r in traj.kkt_reports}) == moving + 1


def test_chained_step_at_rest_solves_every_problem(cone_run, monkeypatch):
    """From an iterate at rest, a chained mm_step builds its KKT arrays
    once per call for every problem (an equal but distinct obstacle array,
    another tau, inner_tol or inner_max_iter, and the same problem again),
    returns its input, and certifies it with the report of a step without
    carry, bit for bit."""
    import bendflow.flow as flow_mod

    traj, cfg, obstacle, _ = cone_run
    rest = traj.iterates[-1]
    kkt = []
    original = flow_mod._kkt_arrays

    def counted(*args):
        kkt.append(None)
        return original(*args)
    monkeypatch.setattr(flow_mod, "_kkt_arrays", counted)
    same_values = Obstacle(obstacle.kind,
                           GridFunction(rest.grid, obstacle.samples.values),
                           height=obstacle.height)
    assert same_values.samples.values is not obstacle.samples.values
    problems = [(obstacle, cfg), (obstacle, cfg), (same_values, cfg),
                (obstacle, replace(cfg, tau=0.5 * cfg.tau)),
                (obstacle, replace(cfg, inner_tol=2.0 * cfg.inner_tol)),
                (obstacle, replace(cfg, inner_max_iter=cfg.inner_max_iter - 1)),
                (obstacle, cfg)]
    carry = [None]
    for k, (obst, step_cfg) in enumerate(problems):
        kkt.clear()
        u, report = mm_step(rest, obst, step_cfg, carry=carry)
        assert u is rest and len(kkt) == 1, k
        _, fresh = mm_step(rest, obst, step_cfg)
        _assert_same_report(report, fresh)


def test_run_flow_stops_solving_at_a_fixed_point(cone_run):
    """run_flow calls mm_step for each step up to and including the first
    one that makes no Newton iteration, and for none after it, with and
    without the stall stop."""
    import bendflow.flow as flow_mod

    _, cfg, obstacle, u0 = cone_run
    for stall in (None, 1e-10):
        with mock.patch.object(flow_mod, "mm_step",
                               wraps=flow_mod.mm_step) as stepped:
            traj = run_flow(u0, obstacle, cfg, stop_when_stall_rate=stall)
        first_rest = int(np.argmin(traj.inner_iterations))
        assert traj.inner_iterations[first_rest] == 0
        assert stepped.call_count == first_rest + 1, stall
        assert stall or first_rest + 1 < traj.n_steps


def _carried_record(u0, obstacle, cfg, stall):
    """run_flow's record rebuilt by a loop that calls mm_step with a carry
    on every step, at rest too, and applies the stall streak step by step,
    in the `_flow_outcome` form plus the contact counts and symmetry
    residuals."""
    w = trapezoid_weights(u0.grid)
    ctol = 10.0 * cfg.inner_tol * math.sqrt(u0.grid.h)
    carry = [None]
    iterates, energies, norms, reports = [u0], [energy(u0)], [], []
    streak = 0
    for _ in range(int(round(cfg.t_end / cfg.tau))):
        u = iterates[-1]
        un, report = mm_step(u, obstacle, cfg, carry=carry)
        iterates.append(un)
        energies.append(carry[0][1].energy)
        norms.append(float(np.sqrt(np.sum(w * (un.values - u.values) ** 2))))
        reports.append(report)
        if stall is not None:
            rate = (energies[-2] - energies[-1]) / cfg.tau
            streak = streak + 1 if rate < stall else 0
            if streak >= 3:
                break
    psi = obstacle.samples.values
    counts = [int(np.sum((u.values - psi) <= ctol)) for u in iterates]
    return _record(iterates, energies, norms, counts,
                   [symmetry_residual(u) for u in iterates], reports)


def _record(iterates, energies, norms, counts, sym, reports):
    """Every recorded bit of a run, reports field by field."""
    return ([u.values.tobytes() for u in iterates], np.array(energies).tobytes(),
            np.array(norms).tobytes(), np.array(counts, dtype=int).tobytes(),
            np.array(sym).tobytes(),
            [tuple(np.asarray(value).tobytes() for value in vars(r).values())
             for r in reports])


@pytest.mark.parametrize("start, stall", [
    ("moving", None),    # the rest runs to t_end
    ("moving", 1e-30),   # the streak, begun at the last moving step, ends it
    ("moving", 1e-10),   # the streak ends the run at the first step at rest
    ("moving", "streak 1"),  # the streak stands at 1 at the first step at rest
    ("moving", "streak 2"),  # and at 2
    ("moving", 1e9),     # every step is slow: the streak ends the run before rest
    ("resting", None),   # the first step already rests
    ("resting", 1e-30),
])
def test_run_at_rest_is_recorded_as_step_by_step(cone_run, start, stall):
    """run_flow, which records the steps from the first one at rest on in
    one go, keeps the bits of a loop that calls mm_step on every step:
    iterates, energies, step norms, contact counts, symmetry residuals and
    every KKTReport field. It calls mm_step once per moving step and once
    at the first step at rest, and records that step's iterate and report
    objects on every later step.

    "streak k" is the energy rate of the cone run's step k + 1 before its
    first step at rest. A rate is slow when below the stall rate, so that
    step is not slow and the k steps after it are: the streak stands at k
    when the first step at rest comes."""
    import bendflow.flow as flow_mod

    traj0, cfg, obstacle, u0 = cone_run
    streak = None
    if isinstance(stall, str):
        streak = int(stall[-1])
        rates = (traj0.energies[:-1] - traj0.energies[1:]) / cfg.tau
        stall = float(rates[int(np.argmin(traj0.inner_iterations)) - 1 - streak])
    if start == "resting":
        u0 = traj0.iterates[-1]
    with mock.patch.object(flow_mod, "mm_step", wraps=flow_mod.mm_step) as stepped:
        traj = run_flow(u0, obstacle, cfg, stop_when_stall_rate=stall)
    want = _carried_record(u0, obstacle, cfg, stall)
    assert _record(traj.iterates, traj.energies, traj.step_norms,
                   traj.coincidence_counts, traj.symmetry_residuals,
                   traj.kkt_reports) == want
    it = traj.iterates
    rests = [k for k in range(traj.n_steps) if it[k + 1] is it[k]]
    if not rests:  # three slow steps before the flow came to rest
        assert stepped.call_count == traj.n_steps == 3
        assert start == "moving" and stall == 1e9
        return
    first_rest = rests[0]
    assert stepped.call_count == first_rest + 1
    assert all(u is it[-1] for u in it[first_rest:])
    assert all(r is traj.kkt_reports[first_rest]
               for r in traj.kkt_reports[first_rest:])
    assert (start == "resting") == (first_rest == 0)
    full = int(round(cfg.t_end / cfg.tau))
    assert (traj.n_steps == full) == (stall is None)
    if streak is not None:  # the streak ends the run after 3 - k steps at rest
        assert traj.n_steps == first_rest + 3 - streak


def test_carried_certificate_does_not_skip_the_obstacle_check(cone_run):
    """An iterate at rest, chained with an obstacle that it lies below,
    raises DomainError: a chained step checks admissibility on every
    call."""
    traj, cfg, obstacle, _ = cone_run
    rest = traj.iterates[-1]
    carry = [None]
    for _ in range(2):
        assert mm_step(rest, obstacle, cfg, carry=carry)[0] is rest
    higher = Obstacle(obstacle.kind, GridFunction(
        rest.grid, obstacle.samples.values + 1e-3), height=obstacle.height)
    with pytest.raises(DomainError, match="above the obstacle"):
        mm_step(rest, higher, cfg, carry=carry)


def test_carried_certificates_exact_on_symmetric_draws():
    """Forty steps from symmetric draws record the same bits in run_flow
    as step by step. run_flow builds no report for a step after one that
    returned its input, and some draws get there."""
    import bendflow.flow as flow_mod

    resting = []

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_tau=st.floats(-4.0, -3.0))
    def check(seed, log_tau):
        u0, obstacle, _ = regen.random_draw(seed, symmetric=True)
        u0 = GridFunction(obstacle.grid, u0)
        tau = 10.0 ** log_tau
        cfg = FlowConfig(tau=tau, t_end=40 * tau)
        with mock.patch.object(flow_mod, "_build_report",
                               wraps=flow_mod._build_report) as built:
            traj = _assert_carrying_exact(u0, obstacle, cfg)
        if traj is None:
            return
        it = traj.iterates
        repeats = sum(it[k] is it[k - 1] for k in range(1, traj.n_steps))
        # a report per step in the stepwise loop, per solved step in run_flow
        assert built.call_count == 2 * traj.n_steps - repeats
        resting.append(repeats)

    check()
    assert sum(resting) > 0


def test_quiet_steps_certify_a_step_phi_cannot_resolve():
    """At c = 0.5, N = 1600, tau = 1e-7 the decrease the full Newton step
    predicts falls below Phi's rounding slack while the residual is still
    above its tolerance; the walk that tests the exact Phi change and the
    residual instead certifies the step."""
    import bendflow.flow as flow_mod

    grid = UniformGrid(1600)
    cfg = FlowConfig(tau=1e-7, t_end=1e-7)
    with mock.patch.object(flow_mod, "_phi_change",
                           wraps=flow_mod._phi_change) as changes:
        _, report = mm_step(u_c_profile(0.5, grid),
                            cone_obstacle(0.02, grid), cfg)
    assert changes.called
    assert report.satisfies(cfg.inner_tol)


def test_quiet_class_reads_the_rounding_of_u_pp():
    """At c = 0.48, N = 1600, tau = 1e-7 a full Newton step predicts a
    decrease of Phi far below what u'' carries of rounding into E_h, yet
    above the no-rise slack; compared as floats, Phi then reads noise and
    no Armijo point exists. Classed quiet by that rounding bound, every
    one of 20 steps certifies, and the data stays symmetric to the bit."""
    grid = UniformGrid(1600)
    cfg = FlowConfig(tau=1e-7, t_end=20e-7)
    traj = run_flow(u_c_profile(0.48, grid), cone_obstacle(0.02, grid), cfg)
    assert traj.n_steps == 20
    assert all(r.satisfies(cfg.inner_tol) for r in traj.kkt_reports)
    assert not traj.symmetry_residuals.any()


@pytest.mark.parametrize("seed, symmetric",
                         [(0, False), (72, False), (240, True), (289, True)])
def test_recipe_draws_certify_every_step(seed, symmetric):
    """Ten steps from recipe draws that stopped with StepConvergenceError
    (plain 0 and 72), or that a quiet walk asking for a residual drop of
    0.9 instead of _QUIET_DROP stopped (symmetric 240 and 289): every step
    certifies, and symmetric data stays symmetric to the bit."""
    u0, obstacle, tau = regen.random_draw(seed, symmetric)
    u0 = GridFunction(obstacle.grid, u0)
    cfg = FlowConfig(tau=tau, t_end=10 * tau)
    traj = run_flow(u0, obstacle, cfg)
    assert traj.n_steps == 10
    assert all(r.satisfies(cfg.inner_tol) for r in traj.kkt_reports)
    assert not symmetric or not traj.symmetry_residuals.any()


def _phi_change_oracle(vt, v, f, h, tau):
    """Phi(vt) - Phi(v) in 40-digit arithmetic from the float data that
    `_phi_change` reads: the float64 stencil tables of v and of
    dv = vt - v, the trapezoid weights, and vt, v and f. Phi formed twice
    at 40 digits from the nodal values would also count the rounding of
    the float64 tables, which `_phi_change` is handed and which the
    cancellation in the energy sum amplifies: on the pinned example that
    oracle is 1.29e-12 relative off, this one 9.7e-14."""
    import mpmath

    import bendflow.discretization as disc_mod

    up, upp = disc_mod._derivative_tables(v, h)
    dp, dpp = disc_mod._derivative_tables(vt - v, h)
    w = disc_mod._trapezoid_weights(len(v) - 1, h)
    with mpmath.workdps(40):
        m = mpmath.mpf
        energy = sum(
            m(wi) * ((m(b) + m(db)) ** 2 * (1 + (m(a) + m(da)) ** 2) ** m(-2.5)
                     - m(b) ** 2 * (1 + m(a) ** 2) ** m(-2.5))
            for wi, a, b, da, db in zip(w, up, upp, dp, dpp))
        prox = sum(m(wi) * ((m(a) - m(c)) ** 2 - (m(b) - m(c)) ** 2)
                   for wi, a, b, c in zip(w, vt, v, f))
        return energy + prox / (2 * m(tau))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(16, 64), seed=st.integers(0, 2**32 - 1),
       log_step=st.floats(-12.0, -2.0), log_tau=st.floats(-7.0, -3.0),
       moved=st.booleans())
@example(n=48, seed=839, log_step=-6.0, log_tau=-3.0, moved=False)
def test_phi_change_matches_a_40_digit_oracle(n, seed, log_step, log_tau,
                                              moved):
    """The exact Phi change agrees to 1e-12 relative with the change of Phi
    formed at 40 digits from the same float64 tables, for steps down to
    1e-12 of |v|, where the float64 difference of the two Phi values is
    rounding noise (up to about 1e-3 relative at these sizes). f is v
    itself or v moved by up to 1e-2."""
    import mpmath

    import bendflow.flow as flow_mod

    rng = np.random.default_rng(seed)
    grid = UniformGrid(n)
    h, tau, x = grid.h, 10.0 ** log_tau, grid.nodes
    v = 1e-3 * rng.normal(size=n + 1) + sum(
        rng.normal() * 0.05 / k * np.sin(k * np.pi * x) for k in range(1, 5))
    f = v + moved * 10 ** rng.uniform(-6, -2) * rng.normal(size=n + 1)
    dv = 10.0 ** log_step * np.abs(v).max() * rng.normal(size=n + 1)
    for a in (v, f, dv):
        a[0] = a[-1] = 0.0
    vt = v + dv
    got = flow_mod._phi_change(vt, v, flow_mod._evaluate(v, h), f, h, tau)
    with mpmath.workdps(40):
        want = _phi_change_oracle(vt, v, f, h, tau)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_kkt_active_set_is_read_only(cone_run):
    traj, _, _, _ = cone_run
    active = traj.kkt_reports[-1].active_set
    assert active.size > 0
    with pytest.raises(ValueError):
        active[0] = 0


# Traced allocation peak of the run below when each kernel formed its own
# powers of 1 + u'^2 (numpy 2.4, Python 3.11): 75.8 arrays of N + 1 floats.
_FINE_RUN_PEAK = 1_941_559


def test_fine_run_holds_no_more_arrays_for_its_powers():
    """The traced allocation peak of one N = 3200, tau = 1e-5, 20-step
    run_flow stays within 1.05 times what it was when no point kept its
    powers: each point holds two more arrays, and the step frees its
    Newton system before the line search. Measured after a first run, so
    the caches of the grid's weights and stencil products are warm."""
    grid = UniformGrid(3200)
    u0, obstacle = u_c_profile(0.5, grid), cone_obstacle(0.02, grid)
    cfg = FlowConfig(tau=1e-5, t_end=20e-5)
    run_flow(u0, obstacle, cfg)
    tracemalloc.start()
    try:
        traj = run_flow(u0, obstacle, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.n_steps == 20 and traj.inner_iterations.sum() > 0
    assert peak <= 1.05 * _FINE_RUN_PEAK, peak


def test_failed_run_releases_solver_frames():
    """The typed failure keeps its partial iterate and step index, but not
    the locals of the solver frames it was raised through."""
    grid = UniformGrid(100)
    cfg = FlowConfig(tau=1e-3, t_end=1.0, inner_max_iter=0)
    with pytest.raises(StepConvergenceError) as excinfo:
        run_flow(u_c_profile(0.5, grid), cone_obstacle(0.02, grid), cfg)
    err = excinfo.value
    assert err.step_index == 0 and err.partial is not None
    frames = [frame for frame, _ in traceback.walk_tb(err.__traceback__)
              if frame.f_code.co_name == "_mm_step_raw"]
    assert len(frames) == 1 and frames[0].f_locals == {}


def test_no_descent_direction_raises_with_the_start(monkeypatch):
    """A Newton system that no damping makes solvable gives no descent
    direction: the Newton loop stops there, and a start above tolerance
    leaves as a typed failure carrying that start."""
    import bendflow.flow as flow_mod

    def singular(ab, b):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(flow_mod, "_solve_banded_mirror", singular)
    grid = UniformGrid(64)
    u0 = u_c_profile(0.5, grid)
    cfg = FlowConfig(tau=1e-5, t_end=1e-4)
    with pytest.raises(StepConvergenceError) as excinfo:
        run_flow(u0, cone_obstacle(0.02, grid), cfg)
    assert excinfo.value.step_index == 0
    assert np.array_equal(excinfo.value.partial, u0.values)


def _counted_solves(monkeypatch):
    """A list that gains one entry per `_solve_banded_mirror` call."""
    import bendflow.flow as flow_mod

    calls = []
    solve = flow_mod._solve_banded_mirror

    def counted(ab, b):
        calls.append(None)
        return solve(ab, b)
    monkeypatch.setattr(flow_mod, "_solve_banded_mirror", counted)
    return calls


@pytest.mark.parametrize("amplitude", [1e150, 1e200])
def test_non_finite_newton_system_is_a_typed_failure(amplitude, monkeypatch):
    """A finite admissible datum whose gradient (1e150) or energy (1e200)
    overflows: the step's start is not finite, so the step solves no
    Newton system and leaves as a typed failure that says so, carrying its
    start, never as a certified step. Numpy warns of no overflow (the
    suite's warnings are errors)."""
    grid = UniformGrid(64)
    v = amplitude * np.sin(np.pi * grid.nodes)
    v[0] = v[-1] = 0.0
    f = GridFunction(grid, v)
    solves = _counted_solves(monkeypatch)
    with pytest.raises(StepConvergenceError,
                       match="start has an energy or gradient that is not "
                             "finite") as excinfo:
        run_flow(f, cone_obstacle(0.02, grid), FlowConfig(tau=1e-3, t_end=1e-3))
    assert excinfo.value.step_index == 0
    assert np.array_equal(excinfo.value.partial, v)
    assert solves == []


def test_non_finite_newton_system_gives_no_direction(monkeypatch):
    """A Newton system with a NaN gives no descent direction, as one that
    no damping makes solvable gives none: the loop ends there with no
    solve, and a start above tolerance leaves as a typed failure carrying
    that start."""
    import bendflow.flow as flow_mod

    bands = flow_mod._energy_hessian_bands

    def with_nan(*args):
        ab = bands(*args)
        ab[flow_mod._HESS_BW, ab.shape[1] // 4] = np.nan  # a free node's diagonal
        return ab
    monkeypatch.setattr(flow_mod, "_energy_hessian_bands", with_nan)
    solves = _counted_solves(monkeypatch)
    grid = UniformGrid(64)
    u0 = u_c_profile(0.5, grid)
    with pytest.raises(StepConvergenceError,
                       match="inner solver stopped at residual") as excinfo:
        mm_step(u0, cone_obstacle(0.02, grid), FlowConfig(tau=1e-5, t_end=1e-5))
    assert np.array_equal(excinfo.value.partial, u0.values)
    assert solves == []


@settings(max_examples=30, deadline=None)
@given(start=st.one_of(
    st.tuples(st.just("draw"), st.integers(0, 2999), st.booleans()),
    st.tuples(st.just("critical"), st.floats(0.005, 0.1),
              st.integers(8, 100).map(lambda m: 2 * m))))
@example(start=("draw", 22, False))
@example(start=("draw", 525, True))
@example(start=("critical", 0.02, 64))
def test_kkt_arrays_end_in_positive_zero(start):
    """Every r and pi that `_kkt_arrays` returns ends in +0.0, bit for bit,
    with no end assigned there: the gradient's ends are +0.0, every point a
    step evaluates is pinned to +0.0 at its ends, and an admissible datum
    ends in +-0.0. Checked over ten steps of recipe draws, plain and
    symmetric, and over the polish of `critical_profile`; the pinned ends
    then add nothing to the residual and certificate maxima."""
    import bendflow.flow as flow_mod

    seen = []
    build = flow_mod._kkt_arrays

    def recorded(*args):
        out = build(*args)
        seen.append(out[:2])
        return out
    with mock.patch.object(flow_mod, "_kkt_arrays", recorded):
        try:
            if start[0] == "draw":
                u0, obstacle, tau = regen.random_draw(start[1], start[2])
                run_flow(GridFunction(obstacle.grid, u0), obstacle,
                         FlowConfig(tau=tau, t_end=10 * tau))
            else:
                critical_profile(start[1], UniformGrid(start[2]))
        except ConvergenceError:
            pass  # the arrays it built still count
    assert seen
    zero = np.zeros(2).tobytes()
    for r, pi in seen:
        assert r[::len(r) - 1].tobytes() == zero
        assert pi[::len(pi) - 1].tobytes() == zero


@pytest.mark.parametrize("n", [16, 200, 3200])
def test_evaluate_gives_the_bits_of_the_chained_kernels(n):
    """`_evaluate` is the kernels chained as a step chains them: the tables,
    the gradient and the powers have the bits `kernel_point` gives, and the
    energy is the one `_energy_raw` forms from those tables."""
    import bendflow.discretization as disc_mod
    import bendflow.flow as flow_mod

    u, _ = _random_admissible(n, n, 0.02)
    h = u.grid.h
    ev = flow_mod._evaluate(u.values, h)
    tables, grad, powers = kernel_point(u.values, h)
    got = (*ev.tables, ev.grad, *ev.powers)
    want = (*tables, grad, *powers)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
    assert ev.energy == disc_mod._energy_raw(*tables, h)[0]


def test_run_flow_constant_trajectory():
    grid = UniformGrid(32)
    obstacle = constant_obstacle(-1.0, grid)
    cfg = FlowConfig(tau=1e-3, t_end=0.01)
    traj = run_flow(GridFunction.zeros(grid), obstacle, cfg)
    assert traj.n_steps == 10
    for it in traj.iterates:
        assert np.array_equal(it.values, np.zeros(grid.n + 1))
    assert np.all(traj.energies == 0.0)


def test_run_flow_cone_descent_and_admissibility(cone_run):
    traj, cfg, obstacle, u0 = cone_run
    assert np.all(np.diff(traj.energies) <= 1e-12)
    for it in traj.iterates:
        assert np.all(it.values >= obstacle.samples.values)
    for k in range(traj.n_steps):
        lhs = traj.step_norms[k] ** 2 / (2 * cfg.tau)
        assert lhs <= traj.energies[k] - traj.energies[k + 1] + 1e-10
    assert max(r.stationarity_residual / r.scale for r in traj.kkt_reports) \
        <= cfg.inner_tol
    assert min(r.multiplier_min / r.scale for r in traj.kkt_reports) \
        >= -cfg.inner_tol


def test_run_flow_symmetry_preserved(cone_run):
    traj, _, _, _ = cone_run
    assert float(np.max(traj.symmetry_residuals)) <= 1e-10


def test_run_flow_coincidence_appears(cone_run):
    traj, _, _, _ = cone_run
    assert np.any(traj.coincidence_counts > 0)


def test_run_flow_warns_above_threshold():
    grid = UniformGrid(64)
    obstacle = constant_obstacle(-1.0, grid)
    big = mirrored(grid, lambda x: 2.0 * math.sin(math.pi * x))
    cfg = FlowConfig(tau=1e-4, t_end=1e-4)
    traj = run_flow(big, obstacle, cfg)
    assert any("threshold" in w for w in traj.warnings)
    assert any("obstacle" in w for w in traj.warnings)


def test_interpolations(cone_run):
    traj, cfg, _, u0 = cone_run
    # exact grid times
    k = 3
    lin = interpolate_linear(traj, k * cfg.tau)
    assert np.allclose(lin.values, traj.iterates[k].values, atol=1e-12)
    # midpoint of a step is the average of the neighbors
    mid = interpolate_linear(traj, (k + 0.5) * cfg.tau)
    avg = 0.5 * (traj.iterates[k].values + traj.iterates[k + 1].values)
    assert np.allclose(mid.values, avg, atol=1e-14)
    with pytest.raises(DomainError):
        interpolate_linear(traj, traj.t_end + 1.0)


def test_interpolation_gap_bound(cone_run):
    # ||u_lin(t) - u_const(t)|| <= sqrt(2 tau) sqrt(E(u0)), where the
    # piecewise-constant interpolant is u_{k+1} on (k tau, (k+1) tau]
    traj, cfg, _, u0 = cone_run
    bound = math.sqrt(2 * cfg.tau) * math.sqrt(traj.energies[0])
    w = trapezoid_weights(traj.grid)
    for t in np.linspace(1e-6, traj.t_end, 13):
        a = interpolate_linear(traj, float(t)).values
        k = min(max(math.ceil(t / cfg.tau - 1e-12), 1), traj.n_steps)
        b = traj.iterates[k].values
        dist = math.sqrt(float(np.sum(w * (a - b) ** 2)))
        assert dist <= bound + 1e-12


def test_dissipation_report(cone_run):
    traj, _, _, _ = cone_run
    rep = dissipation_report(traj)
    assert rep.holds
    assert rep.udot_bound_holds
    assert rep.lhs <= rep.rhs


def test_dissipation_near_equality_for_unconstrained_small_steps():
    # with no contact and converged steps the dissipated sum almost matches
    # the energy drop
    grid = UniformGrid(100)
    obstacle = constant_obstacle(-1.0, grid)
    u0 = mirrored(grid, lambda x: 0.05 * math.sin(math.pi * x))
    cfg = FlowConfig(tau=1e-5, t_end=2e-3)
    traj = run_flow(u0, obstacle, cfg)
    # int ||udot||^2 dt equals the energy drop along the exact flow
    dissipated = float(np.sum(traj.step_norms**2)) / cfg.tau
    drop = traj.energies[0] - traj.energies[-1]
    assert drop > 0
    assert abs(dissipated - drop) <= 0.05 * drop


def test_touch_window_formula_and_preconditions():
    from conftest import simpson_adaptive
    e0 = 0.25
    inf_e = 0.02
    # invert G at sqrt(e0) = 0.5 with the independent Simpson oracle
    lo, hi = 0.0, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        val = simpson_adaptive(lambda t: (1 + t * t) ** -1.25, 0.0, mid)
        lo, hi = (mid, hi) if val < 0.5 else (lo, mid)
    s = 0.5 * (lo + hi)
    expected = s * s / (2 * inf_e) / (5 / (1 + s * s) - 3)
    assert abs(touch_window(e0, inf_e) - expected) < 1e-8
    limit = g(math.sqrt(2.0 / 3.0)) ** 2
    with pytest.raises(DomainError):
        touch_window(limit * 1.0001, inf_e)
    with pytest.raises(DomainError):
        touch_window(0.1, 0.0)
    # the window length blows up at the threshold
    assert touch_window(limit * 0.9999, inf_e) > touch_window(0.25, inf_e)


def test_navier_diagnostic_values():
    grid = UniformGrid(200)
    upp = derivative_tables(GridFunction.zeros(grid))[1]
    assert (abs(upp[0]), abs(upp[-1])) == (0.0, 0.0)
    x = grid.nodes
    upp = derivative_tables(GridFunction(grid, x * (1 - x)))[1]
    d0, d1 = abs(upp[0]), abs(upp[-1])
    assert abs(d0 - 2.0) < 1e-9 and abs(d1 - 2.0) < 1e-9


def test_navier_decays_for_flow_iterates():
    vals = {}
    for n in (100, 200):
        grid = UniformGrid(n)
        u0 = mirrored(grid, lambda x: 1e-3 * math.sin(math.pi * x))
        cfg = FlowConfig(tau=1e-4, t_end=1e-3, inner_tol=1e-10)
        traj = run_flow(u0, constant_obstacle(-1.0, grid), cfg)
        upp = derivative_tables(traj.iterates[-1])[1]
        vals[n] = max(abs(upp[0]), abs(upp[-1]))
    assert vals[200] < vals[100]
    assert vals[100] <= 0.1 * (1.0 / 100)  # far below a C h bound with C = 0.1


def test_symmetry_residual_measure():
    grid = UniformGrid(64)
    sym = mirrored(grid, lambda x: math.sin(math.pi * x))
    assert symmetry_residual(sym) == 0.0
    x = grid.nodes
    asym = GridFunction(grid, x * (1 - x) + x**3)
    assert symmetry_residual(asym) > 0.1


def test_flow_config_validation():
    with pytest.raises(DomainError):
        FlowConfig(tau=0.0, t_end=1.0)
    with pytest.raises(DomainError):
        FlowConfig(tau=1e-3, t_end=1e-4)


def test_run_flow_stall_stop():
    grid = UniformGrid(100)
    obstacle = cone_obstacle(0.02, grid)
    u0 = u_c_profile(0.5, grid)
    cfg = FlowConfig(tau=1e-3, t_end=10.0)
    traj = run_flow(u0, obstacle, cfg, stop_when_stall_rate=1e-9)
    assert traj.n_steps < 10_000  # stopped well before the horizon
    tail_drop = traj.energies[-2] - traj.energies[-1]
    assert tail_drop / cfg.tau < 1e-9


def test_l2_norm_helper_consistency(cone_run):
    traj, _, _, _ = cone_run
    w = trapezoid_weights(traj.grid)
    diff = traj.iterates[1].values - traj.iterates[0].values
    manual = math.sqrt(float(np.sum(w * diff**2)))
    assert abs(manual - traj.step_norms[0]) < 1e-15
    gf = GridFunction(traj.grid, diff)
    assert abs(l2_norm(gf) - manual) < 1e-15


@pytest.mark.parametrize("call, message", [
    (lambda: FlowConfig(tau=1e-3, t_end=1e-2, inner_tol=0.0),
     "inner_tol must be positive"),
    (lambda: FlowConfig(tau=1e-3, t_end=1e-2, inner_tol=-1e-8),
     "inner_tol must be positive"),
    (lambda: FlowConfig(tau=1e-3, t_end=1e-2, inner_tol=math.nan),
     "inner_tol must be positive"),
    (lambda: dissipation_report(Trajectory(
        grid=UniformGrid(16), tau=1e-3,
        iterates=[GridFunction.zeros(UniformGrid(16))], energies=np.zeros(1))),
     "trajectory has no steps"),
], ids=["inner_tol_zero", "inner_tol_negative", "inner_tol_nan", "no_steps"])
def test_input_guards_are_domain_errors(call, message):
    """An inner tolerance that is not positive, and the dissipation report
    of a run with no steps (`simulate` writes its config's bad inner_tol as
    a config error, exit 2; tests/test_config_cli.py)."""
    with pytest.raises(DomainError) as err:
        call()
    assert err.type is DomainError and str(err.value) == message
