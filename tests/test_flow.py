import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bendflow import (
    DomainError,
    FlowConfig,
    GridFunction,
    StepConvergenceError,
    UniformGrid,
    coincidence_set,
    cone_obstacle,
    constant_obstacle,
    dissipation_report,
    end_second_diffs,
    energy,
    energy_gradient,
    g,
    holder_check,
    interpolate_constant,
    interpolate_linear,
    l2_norm,
    mm_step,
    run_flow,
    symmetry_residual,
    table_obstacle,
    touch_window,
    trapezoid_weights,
    u_c_profile,
)

from conftest import mirrored


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
    for its Phi evaluation, so the stencils run once per Phi evaluation."""
    import bendflow.discretization as disc_mod
    import bendflow.flow as flow_mod

    traj, cfg, obstacle, u0 = cone_run
    counts = {"_derivative_tables": 0, "_energy_raw": 0}
    for name in counts:
        original = getattr(disc_mod, name)

        def counted(*args, _name=name, _fn=original):
            counts[_name] += 1
            return _fn(*args)
        for mod in (disc_mod, flow_mod):
            monkeypatch.setattr(mod, name, counted)

    for start, newton in ((traj.iterates[-1], False), (u0, True)):
        for name in counts:
            counts[name] = 0
        _, report = mm_step(start, obstacle, cfg)
        assert (report.inner_iterations > 0) == newton
        assert counts["_energy_raw"] >= 1
        assert counts["_derivative_tables"] == counts["_energy_raw"]


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
    step, records the same bits as the step-by-step loop, failures too."""
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
    for got, want in zip(traj.kkt_reports, reports, strict=True):
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
    bound, and the free nodes solve the free block of the Hessian."""
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
    tables = disc_mod._derivative_tables(v, h)
    ab = disc_mod._energy_hessian_bands(*tables, h)
    ab[flow_mod._BW, :] += w / tau
    dense = np.zeros((n + 1, n + 1))
    for k in range(-flow_mod._BW, 1):
        for j in range(-k, n + 1):
            dense[j + k, j] = dense[j, j + k] = ab[flow_mod._BW + k, j]
    r = disc_mod._energy_gradient_raw(*tables, h)
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
    flow_mod._pin_active(ab, rhs, act, gap)
    # only the end rows fill the offset-3 bands, so pinning clears them and
    # the solve factors at bandwidth 2
    bw = flow_mod._BW
    assert not ab[bw - 3].any() and not ab[bw + 3].any()
    d = flow_mod._solve_banded_mirror(ab, rhs)
    assert d[0] == 0.0 and d[-1] == 0.0
    assert np.array_equal(d[act], -gap[act])
    assert np.max(np.abs(d[free] - want)) <= 1e-9 * np.max(np.abs(want))


def _newton_system(v, psi, h, tau, act):
    """The pinned Newton system of Phi at v, as the step builds it."""
    import bendflow.discretization as disc_mod
    import bendflow.flow as flow_mod

    n = len(v) - 1
    w = disc_mod._trapezoid_weights(n, h)
    tables = disc_mod._derivative_tables(v, h)
    ab = disc_mod._energy_hessian_bands(*tables, h)
    ab[flow_mod._BW, :] += w / tau
    rhs = -(w * disc_mod._energy_gradient_raw(*tables, h))
    rhs[0] = rhs[-1] = 0.0
    gap = v - psi
    gap[0] = gap[-1] = 0.0
    flow_mod._pin_active(ab, rhs, act, gap)
    return ab, rhs


def _two_solve_reference(ab, b):
    """The mirror-averaged solve as two full-band solveh_banded calls."""
    from scipy.linalg import solveh_banded

    import bendflow.flow as flow_mod

    bw = flow_mod._BW
    d1 = solveh_banded(ab[:bw + 1], b, lower=False)
    mirrored = flow_mod._mirror_bands(ab)[:bw + 1]
    d2 = solveh_banded(mirrored, b[::-1], lower=False)[::-1]
    return 0.5 * (d1 + d2)


def test_one_factorisation_per_symmetric_newton_system(monkeypatch):
    """A mirror-symmetric system (upper bands equal to those of its mirror
    bit for bit, palindromic right-hand side) is factored once, any other
    twice; both give the bits of the two-solve full-band reference."""
    import bendflow.flow as flow_mod

    calls = []
    pbsv = flow_mod._PBSV

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0] - 1)  # bandwidth factored
        return pbsv(*args, **kwargs)
    monkeypatch.setattr(flow_mod, "_PBSV", counted)

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
    """The one-factorisation, trimmed-band solve changes no bit of a run
    (at N = 400 the run stops with a typed failure, also unchanged)."""
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
    assert np.array_equal(interpolate_constant(traj, 0.0).values, u0.values)
    # midpoint of a step is the average of the neighbors
    mid = interpolate_linear(traj, (k + 0.5) * cfg.tau)
    avg = 0.5 * (traj.iterates[k].values + traj.iterates[k + 1].values)
    assert np.allclose(mid.values, avg, atol=1e-14)
    # constant interpolant takes the right-hand iterate on (k tau, (k+1) tau]
    const = interpolate_constant(traj, (k + 0.5) * cfg.tau)
    assert np.array_equal(const.values, traj.iterates[k + 1].values)
    with pytest.raises(DomainError):
        interpolate_linear(traj, traj.t_end + 1.0)


def test_interpolation_gap_bound(cone_run):
    # ||u_lin(t) - u_const(t)|| <= sqrt(2 tau) sqrt(E(u0))
    traj, cfg, _, u0 = cone_run
    bound = math.sqrt(2 * cfg.tau) * math.sqrt(traj.energies[0])
    w = trapezoid_weights(traj.grid)
    for t in np.linspace(1e-6, traj.t_end, 13):
        a = interpolate_linear(traj, float(t)).values
        b = interpolate_constant(traj, float(t)).values
        dist = math.sqrt(float(np.sum(w * (a - b) ** 2)))
        assert dist <= bound + 1e-12


def test_dissipation_report(cone_run):
    traj, _, _, _ = cone_run
    rep = dissipation_report(traj)
    assert rep.holds
    assert rep.udot_bound_holds
    assert rep.lhs <= rep.rhs
    assert rep.dissipated_sum <= 2 * traj.energies[0] + 1e-9


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


def test_holder_check(cone_run):
    traj, cfg, _, _ = cone_run
    rep = holder_check(traj, rng=np.random.default_rng(1), n_pairs=100)
    assert rep.holds
    # the adjacent-step pair is exactly the per-step bound
    rep2 = holder_check(traj, pairs=[(3 * cfg.tau, 4 * cfg.tau)])
    assert rep2.holds
    rep3 = holder_check(traj, pairs=[(0.05, 0.05)])
    assert rep3.holds


def test_coincidence_set_exact_touch():
    grid = UniformGrid(32)
    u = GridFunction(grid, np.maximum(grid.nodes * (1 - grid.nodes), 0.0))
    psi = table_obstacle(u)  # obstacle equal to u everywhere
    idx = coincidence_set(u, psi, tol=0.0)
    assert np.array_equal(idx, np.arange(grid.n + 1))


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
    assert end_second_diffs(GridFunction.zeros(grid)) == (0.0, 0.0)
    x = grid.nodes
    d0, d1 = end_second_diffs(GridFunction(grid, x * (1 - x)))
    assert abs(d0 - 2.0) < 1e-9 and abs(d1 - 2.0) < 1e-9


def test_navier_decays_for_flow_iterates():
    vals = {}
    for n in (100, 200):
        grid = UniformGrid(n)
        u0 = mirrored(grid, lambda x: 1e-3 * math.sin(math.pi * x))
        cfg = FlowConfig(tau=1e-4, t_end=1e-3, inner_tol=1e-10)
        traj = run_flow(u0, constant_obstacle(-1.0, grid), cfg)
        vals[n] = max(end_second_diffs(traj.iterates[-1]))
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
