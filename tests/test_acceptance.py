"""Acceptance suite: every criterion at its stated scale and tolerance.

`run_validation()`, the code behind `bendflow validate`, runs once at the
full scale; each test asserts one check's verdict by name and prints one
pass/fail line for it. Criterion 7's scan of the windows is also tested on
hand-built trajectories, where its counts are known.
"""

from unittest import mock

import numpy as np
import pytest

from bendflow import (Trajectory, UniformGrid, cone_obstacle, critical,
                      touch_window)
from bendflow.validate import check_touching, run_validation


@pytest.fixture(scope="module")
def run():
    """The checks of one full run by name, and the calls it made."""
    with mock.patch.object(critical, "critical_profile",
                           wraps=critical.critical_profile) as profiles, \
            mock.patch.object(critical, "check_critical",
                              wraps=critical.check_critical) as reports:
        checks = {c.name: c for c in run_validation().checks}
    return checks, profiles.call_count, reports.call_count


def passes(run, name):
    res = run[0][name]
    print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: "
          f"measured={res.measured} tolerance={res.tolerance}")
    assert res.passed, f"{res.name} failed: {res.measured}"
    return res.measured


def test_each_critical_point_is_built_once(run):
    # criteria 7 and 10 share the acceptance cone's critical point, and each
    # critical point carries the one check_critical report of its profile
    assert run[1:] == (3, 3)


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
    return Trajectory(grid=grid, obstacle=cone_obstacle(0.02, grid), tau=tau,
                      energies=np.full(len(touched), 0.25),
                      coincidence_counts=np.array(touched, dtype=int))


def test_criterion_07_window_scan():
    """With L0 spanning 10 steps of the 60: a touch every 5 steps passes
    all 51 windows; a gap of 12 steps leaves 2 windows without a touch and
    fails; a horizon of 8 steps holds no window and passes vacuously."""
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
    assert res.passed and res.measured["windows_checked"] == 0
    assert "vacuously" in res.detail


def test_criterion_08_hypergeometric_layer(run):
    passes(run, "hypergeometric_layer")


def test_criterion_09_critical_points(run):
    passes(run, "critical_point")


def test_criterion_10_flow_convergence(run):
    passes(run, "flow_convergence")


def test_criterion_11_talenti(run):
    passes(run, "talenti")


def test_criterion_12_navier_boundary(run):
    passes(run, "navier_boundary")
