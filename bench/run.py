#!/usr/bin/env python3
"""bendflow benchmark: one run of one workload.

    python3 bench/run.py --workload {validate_full,cone_rest,fine_ladder}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; bendflow is imported from its src/.
A run starts a fresh single-threaded process per unit of work, with the
BLAS/OpenMP thread counts pinned to 1, and times set-up (process start to
"inputs ready") from outside it. The number of units is fixed by --seconds
and the workload's nominal unit cost, so a seed and --seconds determine the
inputs, and the counters repeat exactly.

Times are scaled to a reference machine speed by a probe that runs in a
process of its own before the first unit and after each unit
(bench/probe.py); the raw times are kept in the results file.

--trace 0 measures the end-to-end metrics over those units: setup_s and
peak_rss_mb are medians over units; wall_s is the median timed section when
every unit repeats one input and the mean when each unit runs a different one
(fine_ladder); node_steps_per_s is the run's node-steps over its run_flow
time; ok_frac is 1 - failed/attempted. --trace 1 runs
untraced and traced units in turn, two of each, on the seed's first input
and reports the per-layer metrics; the tracing overhead is the difference
of the median timed sections. The traced units must agree on every count.
The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the full record of the run
(inputs, counters, failing cases, environment, every unit) is written to
bench/out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
MIN_UNITS = 3
TRACE_UNITS = 4  # untraced and traced units alternate
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "node_steps_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """A unit could not be run; the run ends without a result."""


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "not installed"
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "threads": THREAD_ENV,
        "git_commit": commit,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Probe:
    """The machine-speed probe process (bench/probe.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)

    def samples(self) -> list[float]:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line.strip():
            raise BenchError("the speed probe ended early")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def run_unit(spec: dict, deadline: float) -> dict:
    """Start one worker, time its set-up, and return its result."""
    workdir = Path(spec["workdir"])
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)]
    with open(workdir / "worker_stderr.log", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        max(1.0, deadline - time.monotonic()))
            line = proc.stdout.readline() if ready else ""
            setup = time.perf_counter() - t0
            rest, _ = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"unit timed out; see {workdir}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0 or not rest.strip():
        tail = (workdir / "worker_stderr.log").read_text()[-2000:]
        raise BenchError(f"unit failed (exit {proc.returncode}):\n{tail}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup
    return result


def at_reference_speed(unit: dict) -> dict:
    """The unit's times scaled to the probe's reference machine speed."""
    speed = probe.REFERENCE_S / unit["probe_s"]
    return {k: unit[k] * speed for k in ("setup_s", "wall_s", "flow_s")}


def end_to_end(units: list[dict], same_inputs: bool,
               scaled: bool = True) -> dict:
    """wall_s is the median timed section of units that repeat one input,
    and the mean of units that each run a different input."""
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    ref = [at_reference_speed(u) if scaled else u for u in units]
    typical = statistics.median if same_inputs else statistics.fmean
    return {
        "setup_s": statistics.median(r["setup_s"] for r in ref),
        "wall_s": typical(r["wall_s"] for r in ref),
        "node_steps_per_s": (sum(u["flow_node_steps"] for u in units)
                             / sum(r["flow_s"] for r in ref)),
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the first traced unit, plus the values read from
    the untraced units: check runtimes, CSV size and tracing overhead."""
    values = dict(traced[0]["layers"])
    runtimes = {}
    for u in untraced:
        for c in u["validate_checks"]:
            runtimes.setdefault(c["name"], []).append(c["runtime_s"])
    for name in tracing.VALIDATE_CHECKS:
        values[f"validate.{name}.runtime_s"] = statistics.median(
            runtimes.get(name, [0.0]))
    values["cli.trajectory_csv_bytes"] = untraced[0].get("trajectory_csv_bytes", 0)
    base = statistics.median(at_reference_speed(u)["wall_s"] for u in untraced)
    over = statistics.median(at_reference_speed(u)["wall_s"]
                             for u in traced) - base
    values["trace.overhead_s"] = over
    values["trace.overhead_frac"] = over / base
    missing = tracing.missing_metrics(traced[0]["missing_targets"])
    if runtimes:
        missing += [f"validate.{n}.runtime_s" for n in tracing.VALIDATE_CHECKS
                    if n not in runtimes]
    metrics = {}
    for m in tracing.PER_LAYER:
        if m["name"] not in missing:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return metrics, missing


def _counts_differ(traced: list[dict]) -> bool:
    counted = [{m["name"]: u["layers"][m["name"]] for m in tracing.PER_LAYER
                if m["unit"] == "count" and m["name"] in u["layers"]}
               for u in traced]
    return any(c != counted[0] for c in counted[1:])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "bendflow" / "__init__.py").is_file():
        print(f"error: no bendflow sources under {SRC}; run from the root of "
              "a bendflow checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    wl = workloads.WORKLOADS[args.workload]
    n_units = (TRACE_UNITS if args.trace
               else max(MIN_UNITS, round(args.seconds / wl.nominal_unit_s)))
    inputs = wl.inputs(args.seed, 1 if args.trace else n_units)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / tag
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    # compile the sources once, as an installed program would have them
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, capture_output=True, timeout=60)

    units = []
    probe_proc = Probe()
    try:
        # one probe between consecutive units serves both of them
        before = probe_proc.samples()
        for i in range(n_units):
            traced = bool(args.trace and i % 2)
            spec = {
                "workload": args.workload,
                "inputs": inputs[0 if args.trace else i],
                "workdir": str(work / f"unit{i}"),
                "trace": traced,
                "spans_path": str(OUT / "spans" / f"{tag}.json"),
                "src": str(SRC),
            }
            unit = run_unit(spec, deadline)
            after = probe_proc.samples()
            unit["probe_s"] = probe.speed_seconds(before, after)
            units.append(unit)
            before = after
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        probe_proc.close()

    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    problems = [p for u in units for p in u["problems"]]
    if wl.same_inputs or args.trace:
        # identical inputs in every unit: outputs must agree to the byte
        if len({u["fingerprint"] for u in units}) != 1:
            problems.append("units with identical inputs produced different "
                            "outputs")
    missing = []
    if args.trace:
        metrics, missing = per_layer(units[0::2], units[1::2])
        for u in units[1::2]:
            if ("flow.hessian_builds" not in missing
                    and u["traced_newton_in_completed_runs"]
                    != u["counters"]["newton_iters"]):
                problems.append("tracer's Newton count differs from the sum "
                                "of Trajectory.inner_iterations")
        if _counts_differ(units[1::2]):
            problems.append("traced units disagree on their counters")
        raw = {}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(units, wl.same_inputs).items()}
        raw = end_to_end(units, wl.same_inputs, scaled=False)
    correct = not problems

    record = {
        "workload": args.workload, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "inputs": inputs, "environment": environment(),
        "correct": correct, "problems": problems,
        "attempted": attempted, "failed": failed,
        "failures": [{"unit": i, **f} for i, u in enumerate(units)
                     for f in u["failures"]],
        "counters": [u["counters"] for u in units],
        "missing_per_layer": missing,
        "metrics": metrics,
        "raw_metrics": raw,
        "units": [{k: v for k, v in u.items() if k != "layers"} for u in units],
    }
    with open(OUT / "results" / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    env = record["environment"]
    print(f"workload {args.workload} seed {args.seed}: {len(units)} units, "
          f"inputs {json.dumps([{k: v for k, v in x.items() if k != 'config'} for x in inputs])}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, nproc {env['nproc']}, {env['cpu_model']}, commit "
          f"{env['git_commit']}")
    for i, u in enumerate(units):
        print(f"unit {i}: counters {json.dumps(u['counters'])}")
    print(f"speed probe: median {statistics.median(u['probe_s'] for u in units):.4g}"
          f" s against the reference {probe.REFERENCE_S} s")
    for name, value in raw.items():
        if END_TO_END[name] in ("s", "1/s"):
            print(f"{name} before scaling = {value:.6g} {END_TO_END[name]}")
    for f in record["failures"]:
        if not args.trace or f["unit"] == 0:  # traced runs repeat one input
            print(f"failed: {json.dumps(f)}")
    for prob in problems:
        print(f"incorrect: {prob}")
    if missing:
        print(f"missing per-layer metrics: {', '.join(missing)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
