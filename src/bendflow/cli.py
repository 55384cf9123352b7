"""Command-line interface.

Subcommands: simulate, critical, rearrange, specialfn, validate, sweep.
Exit codes:
  0  success. A finished simulate whose touching window cannot be computed
     still exits 0 and writes every file, with l0_window null and a
     warning: the cone's critical point does not converge, or the cone is
     lower than 3.6e-209, the lowest height the critical point serves.
  1  check failure: a failed validation, or a critical point its own
     residuals reject.
  2  usage or configuration error; a value outside a function's domain or
     range (`critical` of a cone lower than 3.6e-209 is one, with an
     `error:` line); a missing or unreadable input file (a config, a
     profile table, a checkpoint), with a message naming it; two snapshot
     times whose file names would be the same, before the flow runs.
  3  numerical nonconvergence, also a step whose start has an energy or
     gradient that is not finite (as from a finite datum so large that its
     gradient overflows).
A sweep runs every case and exits with the code of its first failed case,
and exits 2 before any case runs if any case does not parse
(`config.parse_sweep`).

Output rule: every CSV file goes through `discretization.write_csv` (floats
as `{:.15g}`, integers as `str`, comma-separated with CRLF line ends, the
bytes of `csv.writer`'s excel dialect; a slice of rows is one `%` of a row
template, into which each column that is constant over the slice is
formatted once) and every JSON file through `_write_json`
(`indent=2`, sorted keys, trailing newline); stdout prints numbers as
`{:.15g}`. Identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import critical as crit
from . import discretization as disc
from . import flow as fl
from . import rearrange as re_
from . import specialfn as sf
from .config import RunConfig, is_number, load_config, parse_sweep, read_json
from .errors import BendflowError, ConfigError, ConvergenceError, DomainError
from .svgplot import emit_plot

_F = "{:.15g}".format

_TRAJ_HEADER = ["step", "time", "energy", "step_l2", "coincidence_count",
                "symmetry_residual", "inner_iters", "kkt_stationarity",
                "kkt_multiplier_min"]


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trajectory_csv(path, traj: fl.Trajectory, steps_offset: int,
                          t_offset: float) -> None:
    """One row per step, its step number and time counted from the start
    of the run that `traj` continues (offsets 0 on a fresh run)."""
    disc.write_csv(path, _TRAJ_HEADER, [
        np.arange(steps_offset + 1, steps_offset + traj.n_steps + 1),
        t_offset + traj.times[1:], traj.energies[1:],
        traj.step_norms, traj.coincidence_counts[1:],
        traj.symmetry_residuals[1:], traj.inner_iterations,
        traj.report_column("stationarity_residual"),
        traj.report_column("multiplier_min"),
    ])


def _write_snapshot_csv(path, u: disc.GridFunction, psi: disc.GridFunction) -> None:
    disc.write_csv(path, ["x", "u", "psi", "gap"],
                   [u.x, u.values, psi.values, u.values - psi.values])


def _simulate_one(cfg: RunConfig, out_dir: Path,
                  resume: Path | None = None) -> dict:
    obstacle = cfg.build_obstacle()
    t_offset = 0.0
    steps_offset = 0
    summary_name = cfg.outputs.get("summary_json", "summary.json")
    if resume is None:  # a resumed run starts from the checkpoint alone
        u0 = cfg.build_initial()
    else:
        summary_path = resume / summary_name
        try:
            prev = read_json(summary_path)
        except ConfigError as err:  # a checkpoint is not a run config
            raise DomainError(str(err)) from err
        steps = prev.get("steps") if isinstance(prev, dict) else None
        if not (type(steps) is int and steps >= 0
                and is_number(prev.get("t_final"))):
            raise DomainError(f"{summary_path}: a checkpoint summary needs a "
                              f"number t_final and an integer steps >= 0")
        u0 = disc.read_profile_csv(resume / "final.csv")
        if u0.grid.n != cfg.grid_n:
            raise ConfigError("checkpoint grid does not match configuration")
        t_offset, steps_offset = prev["t_final"], steps
    # snapshot times count from the start of this run; file names and
    # warnings count from the start of the run it continues, as summary.json
    snapshots = cfg.outputs.get("snapshots", [])
    names = [f"snapshot_t{t_offset + t:g}.csv" for t in snapshots]
    first = {}  # file name -> the first time that names it
    for t, name in zip(snapshots, names):
        if first.setdefault(name, t) != t:
            raise ConfigError(f"outputs.snapshots: times {first[name]!r} and "
                              f"{t!r} would both be written to {name}")
    out_dir.mkdir(parents=True, exist_ok=True)  # once every input has passed
    traj = fl.run_flow(u0, obstacle, cfg.flow,
                       stop_when_stall_rate=cfg.stop_when_stall_rate)

    outputs = cfg.outputs
    if outputs.get("trajectory_csv"):
        _write_trajectory_csv(out_dir / outputs["trajectory_csv"], traj,
                              steps_offset, t_offset)
    t_final = traj.t_end + t_offset
    for t, name in zip(snapshots, names):
        try:
            u_t = fl.interpolate_linear(traj, float(t))
        except DomainError:  # past the last step, as after a stall stop
            traj.warnings.append(f"snapshot t={t_offset + t:g} not written: "
                                 f"the run stopped at t = {t_final:.15g}")
            continue
        _write_snapshot_csv(out_dir / name, u_t, obstacle.samples)
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
    if 0.0 < e0 < fl.G23_SQ:
        inf_e = float(np.min(traj.energies))
        if obstacle.kind == "cone" and traj.grid.n % 2 == 0:
            try:
                inf_e = crit.critical_profile(obstacle.height, traj.grid).energy
            except (ConvergenceError, DomainError) as err:  # files still written
                inf_e = 0.0  # no window
                traj.warnings.append(
                    f"l0_window not computed: the critical point of the cone "
                    f"of height {obstacle.height:g} at N = {traj.grid.n} "
                    f"failed: {err}")
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
        "t_final": t_final,
    }
    _write_json(out_dir / summary_name, summary)
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
    disc.write_csv(out / "critical_profile.csv", ["x", "u", "uprime", "psi"],
                   [cp.profile.x, cp.profile.values, cp.slope_profile.values,
                    psi.values])
    _write_json(out / "critical_residuals.json", {
        "height": cp.obstacle.height, "A": cp.A, "energy": cp.energy,
        "residuals": {"vi_residual": cp.report.vi_residual,
                      "ode_residual": cp.ode_residual,
                      "concavity_min": cp.report.concavity_min},
        "n": args.n,
    })
    mid = cp.profile.values[grid.midpoint_index]
    print(f"A = {cp.A:.15g}, energy = {cp.energy:.15g}, u(1/2) = {mid:.15g}")
    failures = cp.failures()
    if failures:
        print("check failed: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


def _cmd_rearrange(args) -> int:
    f = disc.read_profile_csv(args.input)
    fstar = re_.decreasing_rearrangement(f)
    fsym = re_.symmetric_rearrangement(f)
    v = re_.talenti_comparison(f)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    disc.write_csv(args.out, ["x", "f", "f_star", "f_sym", "v"],
                   [f.x, f.values, fstar.values, fsym.values, v.values])
    print(f"wrote {args.out}")
    return 0


# name -> (number of arguments, function); also the choices of --fn
_SPECIALFN = {
    "g": (1, sf.g), "ginv": (1, sf.g_inv), "c0": (0, sf.c0),
    "h": (1, sf.h_of_A), "hinv": (1, sf.h_inv), "uc": (2, sf.u_c_value),
}


def _cmd_specialfn(args) -> int:
    arity, fn = _SPECIALFN[args.fn]
    if len(args.args) != arity:
        raise ConfigError(f"--fn {args.fn} takes exactly {arity} argument(s)")
    print(_F(fn(*args.args)))
    return 0


def _cmd_validate(args) -> int:
    # imported here, with the numpy.random it brings, so that no other
    # command pays for it; run_validation is read from the module at call time
    from . import validate

    def progress(res):
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name} ({res.runtime_s:.2f}s)")

    report = validate.run_validation(progress=progress)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "validation_report.json", report.to_json())
    print(f"overall: {'pass' if report.overall_pass else 'fail'} "
          f"({sum(c.passed for c in report.checks)}/{len(report.checks)})")
    return 0 if report.overall_pass else 1


def _run_case(payload):
    """Run one sweep case; returns (name, final energy, None), or (name,
    None, (exit code, kind, message)) if the case failed."""
    name, cfg, out_root = payload
    try:
        summary = _simulate_one(cfg, Path(out_root) / name)
    except BendflowError as err:
        return name, None, (*_error_exit(err), str(err))
    return name, summary["final_energy"], None


def _cmd_sweep(args) -> int:
    import concurrent.futures  # with the logging it brings, for sweeps only

    # every case parses before any runs; a RunConfig pickles
    jobs = [(name, cfg, args.out)
            for name, cfg in parse_sweep(read_json(args.config))]
    # a failed case does not stop the others; the exit code is that of the
    # first failed case, in case order. The pool starts all its workers on
    # the first case it is handed, so it is sized to the cases.
    code = 0
    workers = min(args.jobs or os.cpu_count() or 1, len(jobs))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        for name, e, failure in pool.map(_run_case, jobs):
            if failure is None:
                print(f"{name}: final energy {e:.15g}")
                continue
            case_code, kind, message = failure
            print(f"{name}: {kind}: {message}", file=sys.stderr)
            code = code or case_code
    return code


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    pe.add_argument("--fn", required=True, choices=list(_SPECIALFN))
    pe.add_argument("--args", nargs="*", type=float, default=[])
    pe.set_defaults(handler=_cmd_specialfn)

    pv = sub.add_parser("validate", help="run the acceptance checks")
    pv.add_argument("--out", default="out")
    pv.set_defaults(handler=_cmd_validate)

    pw = sub.add_parser("sweep", help="run many configs concurrently")
    pw.add_argument("--config", required=True,
                    help="JSON with 'base' config and named 'cases' overrides")
    pw.add_argument("--out", default="sweep_out")
    pw.add_argument("--jobs", type=_positive_int, default=None)
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
