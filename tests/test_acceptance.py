"""Acceptance suite: every criterion at its stated scale and tolerance.

`run_validation()`, the code behind `bendflow validate`, runs once at the
full scale; each test asserts one check's verdict by name and prints one
pass/fail line for it. Criterion 7's scan of the windows is also tested on
hand-built trajectories, where its counts are known.
"""

from unittest import mock

import mpmath
import numpy as np
import pytest

from bendflow import Trajectory, UniformGrid, critical, flow, touch_window
from bendflow import rearrange, specialfn
from bendflow.validate import (_gauss_jacobi, check_talenti, check_touching,
                               run_validation)


@pytest.fixture(scope="module")
def run():
    """The checks of one full run by name, and the calls it made."""
    with mock.patch.object(critical, "critical_profile",
                           wraps=critical.critical_profile) as profiles, \
            mock.patch.object(critical, "_criticality_report",
                              wraps=critical._criticality_report) as reports, \
            mock.patch.object(flow, "run_flow", wraps=flow.run_flow) as flows:
        checks = {c.name: c for c in run_validation().checks}
    return checks, profiles.call_count, reports.call_count, flows.call_count


def passes(run, name):
    res = run[0][name]
    print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: "
          f"measured={res.measured} tolerance={res.tolerance}")
    assert res.passed, f"{res.name} failed: {res.measured}"
    return res.measured


def test_each_critical_point_is_built_once(run):
    # criteria 7 and 10 share the acceptance cone's critical point, and each
    # critical point carries the one criticality report of its profile
    assert run[1:3] == (3, 3)


def test_the_acceptance_cone_flows_once(run):
    # criteria 5, 6, 7 and 10 read one run over the acceptance cone; the
    # other three flows are criterion 12's grids
    assert run[3] == 4


def test_criterion_01_constants(run):
    passes(run, "constants")


def test_criterion_02_energy_oracle(run):
    passes(run, "energy_oracle")


def test_criterion_03_uc_energy(run):
    passes(run, "uc_energy")


def test_criterion_04_gradient_consistency(run):
    passes(run, "gradient_consistency")


def test_criterion_05_flow_inequalities(run):
    passes(run, "flow_inequalities")


def test_criterion_06_symmetry_preservation(run):
    passes(run, "symmetry_preservation")


def test_criterion_07_finite_time_touching(run):
    measured = passes(run, "finite_time_touching")
    # the window bound is only informative if the flow actually touches
    # and the horizon holds a window of length L0
    assert measured["first_touch_step"] is not None
    assert np.isfinite(measured["L0"])
    assert measured["windows_checked"] > 0


def _touching(touched, tau):
    """A trajectory with E0 = 0.25 that touches the obstacle at the steps
    `touched` marks: all that check_touching reads."""
    grid = UniformGrid(16)
    return Trajectory(grid=grid, tau=tau, energies=np.full(len(touched), 0.25),
                      coincidence_counts=np.array(touched, dtype=int))


def test_criterion_07_window_scan():
    """With L0 spanning 10 steps of the 60: a touch every 5 steps passes
    all 51 windows; a gap of 12 steps leaves 2 windows without a touch and
    fails; a horizon of 8 steps holds no window and fails, since it checks
    nothing."""
    inf_energy = 0.02
    tau = touch_window(0.25, inf_energy) / 10.5
    res = check_touching(_touching([k % 5 == 0 for k in range(61)], tau),
                         inf_energy)
    assert res.passed
    assert (res.measured["windows_checked"],
            res.measured["windows_without_touch"]) == (51, 0)
    res = check_touching(_touching([not 20 <= k < 32 for k in range(61)], tau),
                         inf_energy)
    assert not res.passed and res.measured["windows_without_touch"] == 2
    res = check_touching(_touching([k == 1 for k in range(9)], tau),
                         inf_energy)
    assert not res.passed and res.measured["windows_checked"] == 0
    assert res.detail == ""


def test_criterion_08_hypergeometric_layer(run):
    passes(run, "hypergeometric_layer")


@pytest.mark.parametrize("b, c", [(0.5, 0.75), (1.5, 1.75)])
def test_criterion_08_euler_integral_at_40_digits(b, c):
    """The Pfaff left side, Euler's integral for 2F1(1, b; c; -a^2) on the
    60-point Gauss-Jacobi rule, within 4e-15 relative of 40-digit values
    at criterion 8's slopes (measured worst 1.8e-15)."""
    nodes, weights = _gauss_jacobi(60, b - 1.0, c - b - 1.0)
    assert abs(weights.sum() - 1.0) <= 4e-16
    with mpmath.workdps(40):
        for a in np.linspace(0.1, 5.0, 50):
            got = float(np.sum(weights / (1.0 + a * a * nodes)))
            ref = mpmath.hyp2f1(1, b, c, -mpmath.mpf(a) ** 2)
            assert abs(got - ref) <= 4e-15 * ref, a


def test_criterion_09_critical_points(run):
    passes(run, "critical_point")


def test_criterion_10_flow_convergence(run):
    passes(run, "flow_convergence")


def test_criterion_11_talenti(run):
    passes(run, "talenti")


def test_criterion_11_flip_bisection_keeps_the_80_step_bits():
    """The flip bisection stops at adjacent floats, and its error equals,
    bit for bit, that of the 80-step bisection it replaces: from there on
    no step moves an end."""
    lo, hi = 1e-3, specialfn.c0() / 2.0 - 1e-6
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if rearrange.one_over_ginv_second_derivative(mid) > 0:
            lo = mid
        else:
            hi = mid
    want = abs(0.5 * (lo + hi) - specialfn.g(2.0))
    with mock.patch.object(rearrange, "one_over_ginv_second_derivative",
                           wraps=rearrange.one_over_ginv_second_derivative
                           ) as calls:
        got = check_talenti().measured["convexity_flip_error"]
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert calls.call_count < 80


def test_criterion_12_navier_boundary(run):
    passes(run, "navier_boundary")
