"""Acceptance checks: derived-constant reproduction and run properties.

Each check returns a CheckResult; `run_validation` executes the whole list
and aggregates a ValidationReport. The CLI `validate` subcommand serializes
the report to JSON and exits nonzero when anything fails.

Frozen reference values were computed with independent high-precision
quadrature (documented next to each constant); they are inputs to the
checks, not outputs of the code under test.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from . import critical as crit
from . import discretization as disc
from . import flow as fl
from . import rearrange as re_
from . import specialfn as sf

# int_R (1+t^2)^(-5/4) dt and its square over 4, 30-digit quadrature
C0_REF = 2.3962804694711844
C0_SQ4_REF = 1.4355400220922600
# 4 int_0^1 (1+t^2)^(-5/2) dt = 20 / (3 * 2^(3/2)), energy of x(1-x)
E_PARABOLA_REF = 2.3570226039551584
# G(sqrt(2/3))^2 by the same quadrature
G23_SQ_REF = 0.4324598554964423

# The acceptance cone of criteria 5, 6, 7 and 10: the flow from u_c with
# c = 0.5 (E = 0.25 < G(sqrt(2/3))^2 < G(2)^2) over a cone of height 0.02.
CONE_HEIGHT = 0.02
CONE_N = 200
CONE_TAU = 1e-3
CONE_C = 0.5
CONE_INNER_TOL = 1e-8


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: dict
    bound: str
    tolerance: str
    detail: str = ""
    runtime_s: float = 0.0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "measured": self.measured,
            "bound": self.bound,
            "tolerance": self.tolerance,
            "detail": self.detail,
            "runtime_s": round(self.runtime_s, 3),
        }


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "overall": "pass" if self.overall_pass else "fail",
            "checks": [c.to_json() for c in self.checks],
        }


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    out.runtime_s = time.perf_counter() - t0
    return out


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_constants() -> CheckResult:
    c0 = sf.c0()
    err = abs(c0 - C0_REF)
    err_sq = abs(c0**2 / 4.0 - C0_SQ4_REF)
    passed = err <= 1e-10 and err_sq <= 1e-9
    return CheckResult(
        "constants", passed,
        {"c0": c0, "c0_sq_over_4": c0**2 / 4.0, "error": err},
        f"c0 = {C0_REF}", "1e-10",
        "c0() is the closed form B(1/2, 3/4); C0_REF is quadrature",
    )


def check_energy_oracle() -> CheckResult:
    errs = {}
    for n in (250, 500, 1000, 2000):
        grid = disc.UniformGrid(n)
        x = grid.nodes
        u = disc.GridFunction(grid, x * (1.0 - x))
        errs[n] = abs(disc.energy(u) - E_PARABOLA_REF)
    ns = np.array(sorted(errs))
    slope = -np.polyfit(np.log(ns), np.log([errs[n] for n in ns]), 1)[0]
    passed = errs[2000] < 1e-3 and slope >= 1.8
    return CheckResult(
        "energy_oracle", passed,
        {"error_n2000": errs[2000], "observed_order": float(slope)},
        f"E = {E_PARABOLA_REF}", "error < 1e-3, order >= 1.8",
    )


def check_uc_energy() -> CheckResult:
    grid = disc.UniformGrid(2000)
    errs = {}
    for c in (0.25, 0.5, 1.0):
        u = sf.u_c_profile(c, grid)
        errs[str(c)] = abs(disc.energy(u) - c * c)
    passed = all(e < 2e-3 for e in errs.values())
    return CheckResult(
        "uc_energy", passed, {"errors": errs},
        "E_h(u_c) = c^2", "2e-3 at N=2000",
    )


def check_gradient_consistency() -> CheckResult:
    n_pairs = 20
    rng = default_rng(42)
    grid = disc.UniformGrid(200)
    w = disc.trapezoid_weights(grid)
    worst = 0.0
    for _ in range(n_pairs):
        u = rng.standard_normal(grid.n + 1)
        u = np.clip(u, -1.0, 1.0)
        u[0] = u[-1] = 0.0
        phi = rng.standard_normal(grid.n + 1)
        phi[0] = phi[-1] = 0.0
        gf = disc.GridFunction(grid, u)
        ge = disc.energy_gradient(gf).values
        analytic = float(np.sum(w * ge * phi))
        eps = 1e-6
        up = disc.GridFunction(grid, u + eps * phi)
        um = disc.GridFunction(grid, u - eps * phi)
        fd = (disc.energy(up) - disc.energy(um)) / (2.0 * eps)
        worst = max(worst, abs(fd - analytic) / max(1e-30, abs(fd)))
    return CheckResult(
        "gradient_consistency", worst < 1e-5,
        {"max_rel_error": worst, "pairs": n_pairs},
        "analytic = central FD", "1e-5",
    )


def run_cone() -> fl.Trajectory:
    """The flow from u_c over the acceptance cone to T = 12: the one run
    that criteria 5, 6, 7 and 10 all read. The horizon passes criterion
    7's window L0 = 10.22."""
    grid = disc.UniformGrid(CONE_N)
    obstacle = disc.cone_obstacle(CONE_HEIGHT, grid)
    u0 = sf.u_c_profile(CONE_C, grid)
    cfg = fl.FlowConfig(tau=CONE_TAU, t_end=12.0, inner_tol=CONE_INNER_TOL)
    return fl.run_flow(u0, obstacle, cfg)


def check_flow_inequalities(traj: fl.Trajectory) -> CheckResult:
    en = traj.energies
    slack = 1e-11 * max(1.0, en[0])
    mono = float(np.max(np.diff(en)))
    stan_worst = float(np.max(traj.step_norms**2 / (2.0 * traj.tau)
                              - (en[:-1] - en[1:])))
    diss = fl.dissipation_report(traj, slack_per_step=slack)
    kkt_stat = max(r.stationarity_residual / r.scale for r in traj.kkt_reports)
    kkt_mult = min(r.multiplier_min / r.scale for r in traj.kkt_reports)
    passed = (mono <= slack and stan_worst <= slack and diss.holds
              and diss.udot_bound_holds
              and kkt_stat <= CONE_INNER_TOL and kkt_mult >= -CONE_INNER_TOL)
    return CheckResult(
        "flow_inequalities", passed,
        {
            "max_energy_increase": mono,
            "stanminimov_worst_gap": stan_worst,
            "dissipation_lhs": diss.lhs,
            "dissipation_rhs": diss.rhs,
            "kkt_stationarity_scaled": kkt_stat,
            "kkt_multiplier_min_scaled": kkt_mult,
            "steps": traj.n_steps,
        },
        "per-step and summed descent inequalities",
        f"slack {slack:.1e}; KKT within {CONE_INNER_TOL:g} * scale",
    )


def check_symmetry(traj: fl.Trajectory) -> CheckResult:
    worst = float(np.max(traj.symmetry_residuals))
    return CheckResult(
        "symmetry_preservation", worst <= 1e-10,
        {"max_symmetry_residual": worst}, "0", "1e-10",
    )


def check_touching(traj: fl.Trajectory, inf_energy: float) -> CheckResult:
    e0 = float(traj.energies[0])
    l0 = fl.touch_window(e0, inf_energy)
    tau = traj.tau
    touched = traj.coincidence_counts > 0
    first = int(np.argmax(touched)) if touched.any() else None
    # every maximal window of length l0 inside [0, t_end] spans k_span
    # steps; its touches are a difference of the cumulative touch count
    k_span = int(math.floor(l0 / tau))
    n_windows = max(0, len(touched) - k_span)
    seen = np.concatenate(([0], np.cumsum(touched)))
    violated = int(np.count_nonzero(seen[k_span + 1:] == seen[:n_windows]))
    passed = n_windows > 0 and violated == 0 and e0 < G23_SQ_REF
    return CheckResult(
        "finite_time_touching", passed,
        {
            "E0": e0, "L0": l0, "windows_checked": n_windows,
            "windows_without_touch": violated,
            "first_touch_step": first,
            "first_touch_time": None if first is None else first * tau,
        },
        "every window of length L0 contains a touching step",
        f"E0 < G(sqrt(2/3))^2 = {G23_SQ_REF:.6f}",
    )


def _gauss_jacobi(n: int, p: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [0, 1] and weights, summing to 1, of the n-point Gauss
    rule for the weight t^p (1 - t)^q (p, q > -1, p + q not in {0, -1}):
    Golub and Welsch, from the eigenvalues and eigenvectors of the Jacobi
    matrix of the monic Jacobi recurrence on [-1, 1] with
    alpha = q, beta = p."""
    k = np.arange(n, dtype=float)
    s = 2.0 * k + p + q
    diag = (p * p - q * q) / (s * (s + 2.0))
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * (k + q) * (k + p) * (k + p + q)
                  / (s * s * (s + 1.0) * (s - 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1)
                                 + np.diag(off, -1))
    return 0.5 * (nodes + 1.0), vecs[0] ** 2


def check_hypergeometric() -> CheckResult:
    # Pfaff identity: the left side 2F1(1, b; c; -a^2) by Euler's integral
    # Gamma(c)/(Gamma(b)Gamma(c-b)) int_0^1 t^(b-1) (1-t)^(c-b-1) / (1 + a^2 t)
    # on a 60-point Gauss-Jacobi rule for its weight (within 1.8e-15
    # relative of 40-digit values here), a route that shares no code with
    # H's series; the right side is the reference series
    a_vals = np.linspace(0.1, 5.0, 50)
    worst_pfaff = 0.0
    for b, c in ((0.5, 0.75), (1.5, 1.75)):
        nodes, weights = _gauss_jacobi(60, b - 1.0, c - b - 1.0)
        lhs = (weights / (1.0 + np.multiply.outer(a_vals**2, nodes))).sum(axis=1)
        for a, left in zip(a_vals, lhs):
            x = a * a / (1.0 + a * a)
            rhs = (1.0 / (1.0 + a * a)) * sf.hyp2f1(1.0, c - b, c, x)
            worst_pfaff = max(worst_pfaff, abs(float(left) - rhs))
    # strict monotonicity of H on (0, 10]
    a_mono = np.linspace(1e-3, 10.0, 100)
    hv = np.array([sf.h_of_A(a) for a in a_mono])
    min_slope = float(np.min(np.diff(hv) / np.diff(a_mono)))
    # dual-method agreement on (0, 5]: H against its Gauss-Legendre table
    worst_dual = 0.0
    for a in np.linspace(0.2, 5.0, 25):
        table_h = crit._parametric_table(a)[1][-1]  # the midpoint height
        worst_dual = max(worst_dual, abs(sf.h_of_A(a) - table_h))
    passed = worst_pfaff <= 1e-10 and min_slope > 0.0 and worst_dual <= 1e-9
    return CheckResult(
        "hypergeometric_layer", passed,
        {"pfaff_max_error": worst_pfaff, "H_min_slope": min_slope,
         "dual_method_max_gap": worst_dual},
        "Pfaff identity, H' > 0, dual-route agreement",
        "1e-10 / positive / 1e-9",
    )


def check_critical_points() -> CheckResult:
    grid = disc.UniformGrid(400)
    per = {}
    ok = True
    for height in (0.02, 0.05):
        cp = crit.critical_profile(height, grid)
        round_trip = abs(sf.h_of_A(cp.A) - height)
        mid_err = abs(cp.profile.values[grid.midpoint_index] - height)
        entry = {
            "A": cp.A,
            "round_trip_residual": round_trip,
            "midpoint_error": mid_err,
            "concavity_min": cp.report.concavity_min,
            "ode_residual": cp.ode_residual,
            "vi_residual": cp.report.vi_residual,
            "vi_scale": cp.report.scale,
        }
        ok = ok and (round_trip < 1e-10 and entry["ode_residual"] <= 1e-6
                     and not cp.failures())
        per[str(height)] = entry
    return CheckResult(
        "critical_point", ok, per,
        "round trip, midpoint, concavity, first-order residual, VI",
        "1e-10 / 1e-9 / >0 / 1e-6 / -1e-5*scale",
    )


def check_flow_convergence(traj: fl.Trajectory, cp: crit.CriticalPoint
                           ) -> CheckResult:
    """The final iterate of the acceptance run `traj` against `cp`, the
    critical point over the acceptance cone. On the acceptance cone the
    flow is at rest from step 15 on, so the final iterate is the state the
    flow converged to, to the bit."""
    sup = float(np.max(np.abs(traj.iterates[-1].values - cp.profile.values)))
    e_final = float(traj.energies[-1])
    passed = sup <= 5e-3
    return CheckResult(
        "flow_convergence", passed,
        {"sup_distance": sup, "t_end": traj.t_end,
         "steps": traj.n_steps, "flow_energy": e_final,
         "critical_energy": cp.energy,
         "energy_gap": cp.energy - e_final},
        "||u_final - critical||_inf", "5e-3",
    )


def check_talenti() -> CheckResult:
    n_draws = 20
    rng = default_rng(7)
    grid = disc.UniformGrid(200)
    worst_gap = math.inf
    norm_err = 0.0
    for _ in range(n_draws):
        u = re_.random_concave_profile(rng, grid)
        rep = re_.talenti_inequality_check(u)
        worst_gap = min(worst_gap, rep.min_gap + rep.tol_mesh)
        # the decreasing rearrangement is a permutation: nodal-mass L^p
        # norms (uniform weight h per node) and the maximum are exact
        ustar = re_.decreasing_rearrangement(u)
        usym = re_.symmetric_rearrangement(u)
        for p in (1, 2):
            a = float(np.sum(np.abs(u.values) ** p)) ** (1 / p)
            b = float(np.sum(np.abs(ustar.values) ** p)) ** (1 / p)
            norm_err = max(norm_err, abs(a - b) * grid.h ** (1 / p))
        norm_err = max(norm_err, abs(float(np.max(u.values))
                                     - float(np.max(ustar.values))))
        norm_err = max(norm_err, abs(float(np.max(u.values))
                                     - float(np.max(usym.values))))
    # sign change of (1/Ginv)'' at s = G(2), bisected down to adjacent floats
    lo, hi = sf._bisect(
        lambda s: re_.one_over_ginv_second_derivative(s) > 0,
        1e-3, sf.c0() / 2.0 - 1e-6)
    flip_err = abs(0.5 * (lo + hi) - sf.g(2.0))
    passed = worst_gap >= 0.0 and norm_err <= 1e-8 and flip_err <= 1e-6
    return CheckResult(
        "talenti", passed,
        {"min_slack_over_draws": worst_gap, "norm_preservation_error": norm_err,
         "convexity_flip_error": flip_err, "draws": n_draws},
        "v >= u_* - 5h(1+||f||); norms preserved; flip at G(2)",
        "0 / 1e-8 / 1e-6",
    )


def check_navier() -> CheckResult:
    ns = (100, 200, 400)
    curv = []
    for n in ns:
        grid = disc.UniformGrid(n)
        xl = grid.nodes[: n // 2 + 1]
        u0 = disc.GridFunction.from_symmetric_half(
            grid, 1e-3 * np.sin(np.pi * xl))
        obstacle = disc.constant_obstacle(-1.0, grid)
        cfg = fl.FlowConfig(tau=1e-4, t_end=2e-3, inner_tol=1e-10)  # 20 steps
        traj = fl.run_flow(u0, obstacle, cfg)
        upp = disc.derivative_tables(traj.iterates[-1])[1]
        curv.append(float(max(abs(upp[0]), abs(upp[-1]))))
    slope = -np.polyfit(np.log(ns), np.log(np.maximum(curv, 1e-300)), 1)[0]
    passed = all(np.diff(curv) < 0.0) and slope >= 0.8
    return CheckResult(
        "navier_boundary", passed,
        {"end_curvatures": {str(n): c for n, c in zip(ns, curv)},
         "observed_order": float(slope),
         "C_fit": float(np.max(np.multiply(curv, ns)))},
        "|u''(ends)| <= C h with decay in h", "order >= 0.8",
    )


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def run_validation(progress=None) -> ValidationReport:
    report = ValidationReport()

    def emit(res: CheckResult):
        report.checks.append(res)
        if progress is not None:
            progress(res)

    emit(_timed(check_constants))
    emit(_timed(check_energy_oracle))
    emit(_timed(check_uc_energy))
    emit(_timed(check_gradient_consistency))

    t0 = time.perf_counter()
    traj = run_cone()
    run_elapsed = time.perf_counter() - t0
    res5 = check_flow_inequalities(traj)
    res5.runtime_s = run_elapsed
    emit(res5)
    emit(_timed(check_symmetry, traj))

    # the critical point over the acceptance cone, timed once, with criterion 7
    t0 = time.perf_counter()
    cone_cp = crit.critical_profile(CONE_HEIGHT, traj.grid)
    res7 = check_touching(traj, cone_cp.energy)
    res7.runtime_s = time.perf_counter() - t0
    emit(res7)

    emit(_timed(check_hypergeometric))
    emit(_timed(check_critical_points))
    emit(_timed(check_flow_convergence, traj, cone_cp))
    emit(_timed(check_talenti))
    emit(_timed(check_navier))
    return report
