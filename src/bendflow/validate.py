"""Acceptance checks: derived-constant reproduction and run properties.

Each check returns a CheckResult; `run_validation` executes the whole list
and aggregates a ValidationReport. The CLI `validate` subcommand serializes
the report to JSON and exits nonzero when anything fails. The quick profile
shrinks horizons and sample counts but keeps every check present.

Frozen reference values were computed with independent high-precision
quadrature (documented next to each constant); they are inputs to the
checks, not outputs of the code under test.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.special

from . import critical as crit
from . import discretization as disc
from . import flow as fl
from . import rearrange as re_
from . import specialfn as sf
from .errors import BendflowError

# int_R (1+t^2)^(-5/4) dt and its square over 4, 30-digit quadrature
C0_REF = 2.3962804694711844
C0_SQ4_REF = 1.4355400220922600
# 4 int_0^1 (1+t^2)^(-5/2) dt = 20 / (3 * 2^(3/2)), energy of x(1-x)
E_PARABOLA_REF = 2.3570226039551584
# G(2)^2 and G(sqrt(2/3))^2 by the same quadrature
G2_SQ_REF = 0.9786828514535404
G23_SQ_REF = 0.4324598554964423


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

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    out.runtime_s = time.perf_counter() - t0
    return out


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_constants() -> CheckResult:
    c0 = sf.c0()  # raises internally if its two routes disagree beyond 1e-10
    err = abs(c0 - C0_REF)
    err_sq = abs(c0**2 / 4.0 - C0_SQ4_REF)
    passed = err <= 1e-10 and err_sq <= 1e-9
    return CheckResult(
        "constants", passed,
        {"c0": c0, "c0_sq_over_4": c0**2 / 4.0, "error": err},
        f"c0 = {C0_REF}", "1e-10",
        "dual-route agreement enforced inside c0()",
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


def check_gradient_consistency(n_pairs: int = 20) -> CheckResult:
    rng = np.random.default_rng(42)
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


@dataclass
class _ConeRun:
    traj: fl.Trajectory
    cfg: fl.FlowConfig


def make_cone_run(t_end: float = 2.0, n: int = 200, tau: float = 1e-3,
                  height: float = 0.02, c: float = 0.5) -> _ConeRun:
    grid = disc.UniformGrid(n)
    obstacle = disc.cone_obstacle(height, grid)
    u0 = sf.u_c_profile(c, grid)
    if np.any(u0.values < obstacle.samples.values):
        raise BendflowError("u_c does not dominate the cone; pick a larger c")
    if not disc.energy(u0) < G2_SQ_REF:
        raise BendflowError("initial energy must stay below G(2)^2 here")
    cfg = fl.FlowConfig(tau=tau, t_end=t_end, inner_tol=1e-8)
    traj = fl.run_flow(u0, obstacle, cfg)
    return _ConeRun(traj=traj, cfg=cfg)


def check_flow_inequalities(run: _ConeRun) -> CheckResult:
    traj = run.traj
    en = traj.energies
    slack = 1e-11 * max(1.0, en[0])
    mono = float(np.max(np.diff(en)))
    stan_worst = -math.inf
    for k in range(traj.n_steps):
        lhs = traj.step_norms[k] ** 2 / (2.0 * traj.tau)
        rhs = en[k] - en[k + 1]
        stan_worst = max(stan_worst, lhs - rhs)
    diss = fl.dissipation_report(traj, slack_per_step=slack)
    kkt_stat = max(r.stationarity_residual / r.scale for r in traj.kkt_reports)
    kkt_mult = min(r.multiplier_min / r.scale for r in traj.kkt_reports)
    passed = (mono <= slack and stan_worst <= slack and diss.holds
              and diss.udot_bound_holds
              and kkt_stat <= run.cfg.inner_tol and kkt_mult >= -run.cfg.inner_tol)
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
        f"slack {slack:.1e}; KKT within {run.cfg.inner_tol:g} * scale",
    )


def check_symmetry(run: _ConeRun) -> CheckResult:
    worst = float(np.max(run.traj.symmetry_residuals))
    return CheckResult(
        "symmetry_preservation", worst <= 1e-10,
        {"max_symmetry_residual": worst}, "0", "1e-10",
    )


def check_touching(run: _ConeRun, inf_energy: float) -> CheckResult:
    traj = run.traj
    e0 = float(traj.energies[0])
    l0 = fl.touch_window(e0, inf_energy)
    tau = traj.tau
    touched = traj.coincidence_counts > 0
    first = int(np.argmax(touched)) if touched.any() else None
    # scan every maximal window of length l0 inside [0, t_end]
    n_windows = 0
    violated = 0
    k_span = int(math.floor(l0 / tau))
    total = len(touched) - 1
    for start in range(0, total - k_span + 1):
        n_windows += 1
        if not touched[start:start + k_span + 1].any():
            violated += 1
    passed = violated == 0 and e0 < G23_SQ_REF
    detail = ("no full window fits in the horizon; bound holds vacuously, "
              "first touch reported" if n_windows == 0 else "")
    return CheckResult(
        "finite_time_touching", passed,
        {
            "E0": e0, "L0": l0, "windows_checked": n_windows,
            "windows_without_touch": violated,
            "first_touch_step": first,
            "first_touch_time": None if first is None else first * tau,
        },
        "every window of length L0 contains a touching step",
        f"E0 < G(sqrt(2/3))^2 = {G23_SQ_REF:.6f}", detail,
    )


def check_hypergeometric(n_pfaff: int = 50, n_mono: int = 100,
                         n_dual: int = 25) -> CheckResult:
    # Pfaff identity, scipy's hyp2f1 as the independent left side
    a_vals = np.linspace(0.1, 5.0, n_pfaff)
    worst_pfaff = 0.0
    for a in a_vals:
        x = a * a / (1.0 + a * a)
        for b, c in ((0.5, 0.75), (1.5, 1.75)):
            lhs = float(scipy.special.hyp2f1(1.0, b, c, -a * a))
            rhs = (1.0 / (1.0 + a * a)) * sf.hyp2f1(
                sf.HypergeometricParams(1.0, c - b, c), x)
            worst_pfaff = max(worst_pfaff, abs(lhs - rhs))
    # strict monotonicity of H on (0, 10]
    a_mono = np.linspace(1e-3, 10.0, n_mono)
    hv = np.array([sf._h_hyp(a) for a in a_mono])
    min_slope = float(np.min(np.diff(hv) / np.diff(a_mono)))
    # dual-method agreement on (0, 5]
    worst_dual = 0.0
    for a in np.linspace(0.2, 5.0, n_dual):
        worst_dual = max(worst_dual, abs(sf._h_hyp(a) - sf._h_quad(a)))
    passed = worst_pfaff <= 1e-10 and min_slope > 0.0 and worst_dual <= 1e-9
    return CheckResult(
        "hypergeometric_layer", passed,
        {"pfaff_max_error": worst_pfaff, "H_min_slope": min_slope,
         "dual_method_max_gap": worst_dual},
        "Pfaff identity, H' > 0, dual-route agreement",
        "1e-10 / positive / 1e-9",
    )


def check_critical_points(heights=(0.02, 0.05), n: int = 400) -> CheckResult:
    grid = disc.UniformGrid(n)
    per = {}
    ok = True
    for height in heights:
        cp = crit.critical_profile(height, grid)
        round_trip = abs(sf.h_of_A(cp.A) - height)
        mid_err = abs(cp.profile.values[grid.midpoint_index] - height)
        entry = {
            "A": cp.A,
            "round_trip_residual": round_trip,
            "midpoint_error": mid_err,
            "concavity_min": cp.residuals["concavity_min"],
            "ode_residual": cp.residuals["ode_residual"],
            "vi_residual": cp.residuals["vi_residual"],
        }
        report = crit.check_critical(cp.profile, cp.obstacle, tol=1e-5)
        entry["vi_scale"] = report.scale
        ok = ok and (round_trip < 1e-10 and mid_err <= 1e-9
                     and entry["concavity_min"] > 0.0
                     and entry["ode_residual"] <= 1e-6
                     and report.passes_vi)
        per[str(height)] = entry
    return CheckResult(
        "critical_point", ok, per,
        "round trip, midpoint, concavity, first-order residual, VI",
        "1e-10 / 1e-9 / >0 / 1e-6 / -1e-5*scale",
    )


def check_flow_convergence(stall_rate: float = 1e-10, n: int = 200,
                           tau: float = 1e-3, height: float = 0.02,
                           c: float = 0.5, t_cap: float = 10.0) -> CheckResult:
    grid = disc.UniformGrid(n)
    obstacle = disc.cone_obstacle(height, grid)
    u0 = sf.u_c_profile(c, grid)
    cfg = fl.FlowConfig(tau=tau, t_end=t_cap, inner_tol=1e-8)
    traj = fl.run_flow(u0, obstacle, cfg, stop_when_stall_rate=stall_rate)
    cp = crit.critical_profile(height, grid)
    sup = float(np.max(np.abs(traj.iterates[-1].values - cp.profile.values)))
    e_final = float(traj.energies[-1])
    passed = sup <= 5e-3
    return CheckResult(
        "flow_convergence", passed,
        {"sup_distance": sup, "stalled_at_t": traj.t_end,
         "steps": traj.n_steps, "flow_energy": e_final,
         "critical_energy": cp.energy,
         "energy_gap": cp.energy - e_final},
        "||u_final - critical||_inf", "5e-3",
    )


def check_talenti(n_draws: int = 20, n: int = 200) -> CheckResult:
    rng = np.random.default_rng(7)
    grid = disc.UniformGrid(n)
    worst_gap = math.inf
    norm_err = 0.0
    for _ in range(n_draws):
        u = re_.random_concave_profile(rng, grid, slope_bound=2.0)
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
    # sign change of (1/Ginv)'' at s = G(2)
    lo, hi = 1e-3, sf.c0() / 2.0 - 1e-6
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if re_.one_over_ginv_second_derivative(mid) > 0:
            lo = mid
        else:
            hi = mid
    flip_err = abs(0.5 * (lo + hi) - sf.g(2.0))
    passed = worst_gap >= 0.0 and norm_err <= 1e-8 and flip_err <= 1e-6
    return CheckResult(
        "talenti", passed,
        {"min_slack_over_draws": worst_gap, "norm_preservation_error": norm_err,
         "convexity_flip_error": flip_err, "draws": n_draws},
        "v >= u_* - 5h(1+||f||); norms preserved; flip at G(2)",
        "0 / 1e-8 / 1e-6",
    )


def check_navier(ns=(100, 200, 400), tau: float = 1e-4, steps: int = 20
                 ) -> CheckResult:
    vals = {}
    for n in ns:
        grid = disc.UniformGrid(n)
        xl = grid.nodes[: n // 2 + 1]
        u0 = disc.GridFunction.from_symmetric_half(
            grid, 1e-3 * np.sin(np.pi * xl))
        obstacle = disc.constant_obstacle(-1.0, grid)
        cfg = fl.FlowConfig(tau=tau, t_end=steps * tau, inner_tol=1e-10)
        traj = fl.run_flow(u0, obstacle, cfg)
        d0, d1 = disc.end_second_diffs(traj.iterates[-1])
        vals[n] = max(d0, d1)
    ns_arr = np.array(sorted(vals))
    slope = -np.polyfit(np.log(ns_arr), np.log([max(vals[n], 1e-300)
                                                for n in ns_arr]), 1)[0]
    ratios_decay = all(vals[ns_arr[i + 1]] < vals[ns_arr[i]]
                       for i in range(len(ns_arr) - 1))
    c_fit = max(vals[n] * n for n in ns_arr)
    passed = ratios_decay and slope >= 0.8
    return CheckResult(
        "navier_boundary", passed,
        {"end_curvatures": {str(k): v for k, v in vals.items()},
         "observed_order": float(slope), "C_fit": c_fit},
        "|u''(ends)| <= C h with decay in h", "order >= 0.8",
    )


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def run_validation(quick: bool = False, progress=None) -> ValidationReport:
    report = ValidationReport()

    def emit(res: CheckResult):
        report.checks.append(res)
        if progress is not None:
            progress(res)

    emit(_timed(check_constants))
    emit(_timed(check_energy_oracle))
    emit(_timed(check_uc_energy))
    emit(_timed(lambda: check_gradient_consistency(5 if quick else 20)))

    t0 = time.perf_counter()
    run = make_cone_run(t_end=0.5 if quick else 2.0)
    run_elapsed = time.perf_counter() - t0
    res5 = check_flow_inequalities(run)
    res5.runtime_s = run_elapsed
    emit(res5)
    emit(_timed(lambda: check_symmetry(run)))

    t0 = time.perf_counter()
    cp = crit.critical_profile(0.02, disc.UniformGrid(run.traj.grid.n))
    res7 = check_touching(run, inf_energy=cp.energy)
    res7.runtime_s = time.perf_counter() - t0
    emit(res7)

    emit(_timed(lambda: check_hypergeometric(
        n_pfaff=10 if quick else 50, n_mono=25 if quick else 100,
        n_dual=8 if quick else 25)))
    emit(_timed(check_critical_points))
    emit(_timed(lambda: check_flow_convergence(
        stall_rate=1e-8 if quick else 1e-10)))
    emit(_timed(lambda: check_talenti(n_draws=5 if quick else 20)))
    emit(_timed(lambda: check_navier(ns=(100, 200) if quick else (100, 200, 400))))
    return report
