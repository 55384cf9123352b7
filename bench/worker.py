"""One unit of a benchmark workload, in a fresh process.

    python3 bench/worker.py '<json spec>'

The spec names the workload, the unit's inputs, a work directory, whether to
trace, and the source directory bendflow must be imported from. Protocol on
standard output: the line "ready" once the inputs are ready (the parent
times set-up up to it), then one JSON line with the unit's results. What the
program itself prints goes to a log in the work directory.

Two observers are always installed; they wrap flow.run_flow and
validate.run_validation, which run a handful of times per unit, to read the
public Trajectory and CheckResult fields those calls return. With tracing
on, the tracer's wrappers are installed underneath them.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads


class Observers:
    """Reads run_flow's Trajectory and run_validation's report."""

    def __init__(self):
        self.flows: list[dict] = []
        self.checks: list[dict] = []

    def install(self, patcher: tracing.Patcher) -> None:
        patcher.patch("bendflow.flow", "run_flow", self._observe_flow)
        patcher.patch("bendflow.validate", "run_validation",
                      self._observe_validation)

    def _observe_flow(self, fn):
        def observed(*args, **kwargs):
            u0 = args[0] if args else kwargs["u0"]
            rec = {"n": u0.grid.n, "steps": 0, "newton": 0, "rest": 0,
                   "error": None}
            t0 = time.perf_counter()
            try:
                traj = fn(*args, **kwargs)
            except Exception as err:
                step = getattr(err, "step_index", None)
                rec.update(error=type(err).__name__,
                           steps=step if isinstance(step, int) else 0)
                raise
            finally:
                rec["seconds"] = time.perf_counter() - t0
                self.flows.append(rec)
            it = traj.inner_iterations
            rec.update(steps=traj.n_steps, newton=int(it.sum()),
                       rest=int((it == 0).sum()))
            return traj
        return observed

    def _observe_validation(self, fn):
        def observed(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.checks = [{"name": c.name, "runtime_s": float(c.runtime_s),
                            "passed": bool(c.passed)} for c in report.checks]
            return report
        return observed

    def counters(self) -> dict:
        """Machine-independent counts from the public Trajectory fields:
        steps completed (failed runs count the steps before the failing
        one), and Newton iterations and steps at rest of completed runs."""
        ok = [f for f in self.flows if f["error"] is None]
        return {
            "flow_runs": len(self.flows),
            "flow_runs_failed": len(self.flows) - len(ok),
            "steps_completed": sum(f["steps"] for f in self.flows),
            "newton_iters": sum(f["newton"] for f in ok),
            "rest_steps": sum(f["rest"] for f in ok),
        }


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    workdir = Path(spec["workdir"])
    proto = sys.stdout
    sys.stdout = open(workdir / "program_stdout.log", "w")

    import bendflow.cli  # noqa: F401  (loads every module that gets patched)
    src = Path(spec["src"]).resolve()
    if src not in Path(bendflow.__file__).resolve().parents:
        print(f"bendflow imported from {bendflow.__file__}, not {src}",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[spec["workload"]]
    patcher = tracing.Patcher()
    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer is not None:
        tracing.install(tracer, patcher)
    obs = Observers()
    obs.install(patcher)

    state = wl.setup(spec["inputs"], workdir)
    proto.write("ready\n")
    proto.flush()
    t0 = time.perf_counter()
    outcome = wl.run(state)
    wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    patcher.restore()

    result = wl.check(state, outcome)
    result.update(
        wall_s=wall,
        peak_rss_mb=rss_mb,
        counters=obs.counters(),
        flow_node_steps=sum((f["n"] + 1) * f["steps"] for f in obs.flows),
        flow_s=sum(f["seconds"] for f in obs.flows),
        validate_checks=obs.checks,
        missing_targets=patcher.missing,
    )
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["traced_newton_in_completed_runs"] = (
            tracing.newton_in_completed_runs(tracer))
        result["patched_sites"] = patcher.sites
        tracer.write(spec["spans_path"])
    sys.stdout.close()
    sys.stdout = proto
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
