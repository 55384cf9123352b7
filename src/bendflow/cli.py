"""Command-line interface.

Subcommands: simulate, critical, rearrange, specialfn, validate, sweep.
Exit codes: 0 success, 1 check failure, 2 usage or configuration error,
3 numerical nonconvergence; a sweep runs every case and exits with the
code of its first failed case. All numeric output uses 15 significant digits
and identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import critical as crit
from . import discretization as disc
from . import flow as fl
from . import rearrange as re_
from . import specialfn as sf
from .config import RunConfig, load_config, parse_config, read_json
from .errors import BendflowError, ConfigError, ConvergenceError
from .svgplot import emit_plot
from .validate import run_validation

_F = "{:.15g}".format

_TRAJ_HEADER = ["step", "time", "energy", "step_l2", "coincidence_count",
                "symmetry_residual", "inner_iters", "kkt_stationarity",
                "kkt_multiplier_min"]


def _write_trajectory_csv(path, traj: fl.Trajectory) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(_TRAJ_HEADER)
        for k in range(1, traj.n_steps + 1):
            rep = traj.kkt_reports[k - 1]
            mult = rep.multiplier_min
            wr.writerow([
                k, _F(traj.times[k]), _F(traj.energies[k]),
                _F(traj.step_norms[k - 1]), traj.coincidence_counts[k],
                _F(traj.symmetry_residuals[k]), traj.inner_iterations[k - 1],
                _F(rep.stationarity_residual),
                "inf" if mult == float("inf") else _F(mult),
            ])


def _write_snapshot_csv(path, u: disc.GridFunction, psi: disc.GridFunction) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["x", "u", "psi", "gap"])
        for x, uv, pv in zip(u.x, u.values, psi.values):
            wr.writerow([_F(x), _F(uv), _F(pv), _F(uv - pv)])


def _simulate_one(cfg: RunConfig, out_dir: Path,
                  resume: Path | None = None) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    obstacle = cfg.build_obstacle()
    u0 = cfg.build_initial()
    t_offset = 0.0
    steps_offset = 0
    summary_name = cfg.outputs.get("summary_json", "summary.json")
    if resume is not None:
        prev = json.loads((resume / summary_name).read_text())
        u0 = disc.read_profile_csv(resume / "final.csv")
        if u0.grid.n != cfg.grid_n:
            raise ConfigError("checkpoint grid does not match configuration")
        t_offset = prev["t_final"]
        steps_offset = prev["steps"]
    traj = fl.run_flow(u0, obstacle, cfg.flow,
                       stop_when_stall_rate=cfg.stop_when_stall_rate)

    outputs = cfg.outputs
    if outputs.get("trajectory_csv"):
        _write_trajectory_csv(out_dir / outputs["trajectory_csv"], traj)
    for t in outputs.get("snapshots", []):
        u_t = fl.interpolate_linear(traj, float(t))
        _write_snapshot_csv(out_dir / f"snapshot_t{t:g}.csv", u_t,
                            obstacle.samples)
    if outputs.get("plot_svg"):
        profiles = [("initial", traj.iterates[0]),
                    ("final", traj.iterates[-1]),
                    ("obstacle", obstacle.samples)]
        emit_plot(profiles, out_dir / outputs["plot_svg"])

    diss = fl.dissipation_report(traj)
    touched = traj.coincidence_counts > 0
    touched_at = int(np.argmax(touched)) if touched.any() else None
    l0 = None
    e0 = float(traj.energies[0])
    from .validate import G23_SQ_REF
    if 0.0 < e0 < G23_SQ_REF:
        inf_e = float(np.min(traj.energies))
        if obstacle.kind == "cone" and traj.grid.n % 2 == 0:
            inf_e = crit.critical_profile(obstacle.height, traj.grid).energy
        if inf_e > 0:
            l0 = fl.touch_window(e0, inf_e)
    summary = {
        "final_energy": float(traj.energies[-1]),
        "dissipation_lhs": diss.lhs,
        "dissipation_rhs": diss.rhs,
        "touched_at_step": None if touched_at is None
        else touched_at + steps_offset,
        "l0_window": l0,
        # the adopted reading of the touching-window bound, stated explicitly
        "l0_formula": "Ginv(sqrt(E0))^2 / (2 infE) / (5/(1 + Ginv(sqrt(E0))^2) - 3)",
        "warnings": list(traj.warnings),
        "steps": traj.n_steps + steps_offset,
        "t_final": traj.t_end + t_offset,
    }
    with open(out_dir / summary_name, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    disc.write_profile_csv(out_dir / "final.csv", traj.iterates[-1])
    return summary


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    resume = Path(args.resume) if args.resume else None
    summary = _simulate_one(cfg, Path(args.out), resume=resume)
    print(f"final energy {summary['final_energy']:.15g} after "
          f"{summary['steps']} steps (t = {summary['t_final']:.15g})")
    if summary["l0_window"] is not None:
        print(f"touching-window length L0 = {summary['l0_window']:.15g} "
              f"using {summary['l0_formula']}")
    for w in summary["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def _cmd_critical(args) -> int:
    if args.n % 2 != 0:
        raise ConfigError("--n must be even so the contact node x=1/2 exists")
    grid = disc.UniformGrid(args.n)
    cp = crit.critical_profile(args.height, grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    psi = cp.obstacle.samples
    with open(out / "critical_profile.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["x", "u", "uprime", "psi"])
        for x, u, up, pv in zip(cp.profile.x, cp.profile.values,
                                cp.slope_profile.values, psi.values):
            wr.writerow([_F(x), _F(u), _F(up), _F(pv)])
    payload = {
        "height": cp.height, "A": cp.A, "energy": cp.energy,
        "residuals": cp.residuals, "n": args.n,
    }
    with open(out / "critical_residuals.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"A = {cp.A:.15g}, energy = {cp.energy:.15g}, "
          f"u(1/2) = {cp.profile.values[grid.midpoint_index]:.15g}")
    return 0


def _cmd_rearrange(args) -> int:
    f = disc.read_profile_csv(args.input)
    fstar = re_.decreasing_rearrangement(f)
    fsym = re_.symmetric_rearrangement(f)
    v = re_.talenti_comparison(f)
    with open(args.out, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["x", "f", "f_star", "f_sym", "v"])
        for x, a, b, c, d in zip(f.x, f.values, fstar.values, fsym.values,
                                 v.values):
            wr.writerow([_F(x), _F(a), _F(b), _F(c), _F(d)])
    print(f"wrote {args.out}")
    return 0


def _cmd_specialfn(args) -> int:
    fn = args.fn
    vals = [float(a) for a in args.args]

    def need(k):
        if len(vals) != k:
            raise ConfigError(f"--fn {fn} takes exactly {k} argument(s)")

    if fn == "c0":
        need(0)
        out = [sf.c0()]
    elif fn == "g":
        need(1)
        out = [sf.g(vals[0])]
    elif fn == "ginv":
        need(1)
        out = [sf.g_inv(vals[0])]
    elif fn == "h":
        need(1)
        out = [sf.h_of_A(vals[0])]
    elif fn == "hinv":
        need(1)
        out = [sf.h_inv(vals[0])]
    else:  # uc
        need(2)
        out = [sf.u_c_value(vals[0], vals[1])]
    for v in out:
        print(_F(v))
    return 0


def _cmd_validate(args) -> int:
    def progress(res):
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name} ({res.runtime_s:.2f}s)")

    report = run_validation(quick=args.quick, progress=progress)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write(out_dir / "validation_report.json")
    print(f"overall: {'pass' if report.overall_pass else 'fail'} "
          f"({sum(c.passed for c in report.checks)}/{len(report.checks)})")
    return 0 if report.overall_pass else 1


def _run_case(payload):
    """Run one sweep case; returns (name, final energy, None), or (name,
    None, (exit code, kind, message)) if the case failed."""
    name, case_data, out_root = payload
    try:
        cfg = parse_config(case_data)
        summary = _simulate_one(cfg, Path(out_root) / name)
    except BendflowError as err:
        return name, None, (*_error_exit(err), str(err))
    return name, summary["final_energy"], None


def _cmd_sweep(args) -> int:
    data = read_json(args.config)
    if not isinstance(data, dict) or "cases" not in data:
        raise ConfigError("sweep config needs a 'cases' object of run configs")
    base = data.get("base", {})
    cases = data["cases"]
    if not isinstance(cases, dict) or not cases:
        raise ConfigError("'cases' must be a nonempty object name -> overrides")
    jobs = []
    for name, overrides in cases.items():
        merged = json.loads(json.dumps(base))
        for key, val in overrides.items():
            if isinstance(val, dict) and isinstance(merged.get(key), dict):
                merged[key].update(val)
            else:
                merged[key] = val
        parse_config(merged)  # fail fast on config errors, before spawning
        jobs.append((name, merged, args.out))
    # a failed case does not stop the others; the exit code is that of the
    # first failed case, in case order
    code = 0
    with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
        for name, e, failure in pool.map(_run_case, jobs):
            if failure is None:
                print(f"{name}: final energy {e:.15g}")
                continue
            case_code, kind, message = failure
            print(f"{name}: {kind}: {message}", file=sys.stderr)
            code = code or case_code
    return code


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bendflow",
        description="Obstacle-constrained gradient flow of the elastic "
                    "bending energy: simulation, critical points, "
                    "rearrangements and validation.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="run a flow from a JSON config")
    ps.add_argument("--config", required=True, help="JSON run configuration")
    ps.add_argument("--out", default="out", help="output directory")
    ps.add_argument("--resume", default=None,
                    help="checkpoint directory to continue from")
    ps.set_defaults(handler=_cmd_simulate)

    pc = sub.add_parser("critical", help="symmetric cone critical point")
    pc.add_argument("--height", type=float, required=True)
    pc.add_argument("--n", type=int, default=400, help="grid cells (even)")
    pc.add_argument("--out", default="out")
    pc.set_defaults(handler=_cmd_critical)

    pr = sub.add_parser("rearrange", help="rearrangements + comparison profile")
    pr.add_argument("--input", required=True, help="profile CSV (x,value)")
    pr.add_argument("--out", default="pair.csv")
    pr.set_defaults(handler=_cmd_rearrange)

    pf = sub.add_parser("specialfn", help="evaluate scalar special functions")
    pfs = pf.add_subparsers(dest="subcommand", required=True)
    pe = pfs.add_parser("eval")
    pe.add_argument("--fn", required=True,
                    choices=["g", "ginv", "c0", "h", "hinv", "uc"])
    pe.add_argument("--args", nargs="*", default=[])
    pe.set_defaults(handler=_cmd_specialfn)

    pv = sub.add_parser("validate", help="run the acceptance checks")
    pv.add_argument("--out", default="out")
    pv.add_argument("--quick", action="store_true",
                    help="reduced horizons and sample counts")
    pv.set_defaults(handler=_cmd_validate)

    pw = sub.add_parser("sweep", help="run many configs concurrently")
    pw.add_argument("--config", required=True,
                    help="JSON with 'base' config and named 'cases' overrides")
    pw.add_argument("--out", default="sweep_out")
    pw.add_argument("--jobs", type=int, default=None)
    pw.set_defaults(handler=_cmd_sweep)
    return p


def _error_exit(err: BendflowError) -> tuple[int, str]:
    """Exit code and message prefix for an error of the package."""
    if isinstance(err, ConfigError):
        return 2, "config error"
    if isinstance(err, ConvergenceError):
        return 3, "nonconvergence"
    return 2, "error"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(err.code or 0)
    try:
        return args.handler(args)
    except BendflowError as err:
        code, kind = _error_exit(err)
        print(f"{kind}: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
