"""Spans and counters recorded around calls into bendflow, from outside it.

Nothing under src/ is edited: a `Patcher` replaces a function at every
module attribute of the bendflow package that holds it (the defining module
and each `from .x import name` binding), and puts the originals back on
`restore()`. A `Tracer` supplies the wrappers. Each span records its label,
start, end, parent span and whether the call returned; spans stay in memory
and are written once the unit of work ends. A target that a later version of
the program no longer has is recorded as missing and the per-layer metrics
that need it are reported as missing, not computed.

`layer_metrics` turns the spans into the per-layer metrics named in
`PER_LAYER`; `LAYER_EFFECTS` records which end-to-end metric each layer is
expected to move, on which workload.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "bendflow"

# Span record layout: [label, start, end, parent index, returned, probe value].
_LABEL, _START, _END, _PARENT, _OK, _VALUE = range(6)


class Patcher:
    """Replaces functions at every bendflow binding and restores them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.sites: dict[str, list[str]] = {}

    def patch(self, module_name: str, attr: str,
              make_wrapper: Callable[[Callable], Callable],
              everywhere: bool = True) -> bool:
        """Wrap `module_name.attr`; with `everywhere`, also every other
        attribute of a loaded bendflow module bound to the same object.
        Returns False (and records the target as missing) if it is gone."""
        key = f"{module_name}.{attr}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(key)
            return False
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(key)
            return False
        sites = [(module, attr)]
        if everywhere:
            for name, mod in sorted(sys.modules.items()):
                if mod is None or not (name == PACKAGE
                                       or name.startswith(PACKAGE + ".")):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original and not (mod is module
                                                  and binding == attr):
                        sites.append((mod, binding))
        wrapper = make_wrapper(original)
        for mod, binding in sites:
            setattr(mod, binding, wrapper)
            self._undo.append((mod, binding, original))
        self.sites[key] = [f"{m.__name__}.{b}" for m, b in sites]
        return True

    def restore(self) -> None:
        while self._undo:
            mod, binding, original = self._undo.pop()
            setattr(mod, binding, original)


class Tracer:
    """In-memory span recorder for one single-threaded unit of work."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, label: str, probe: Callable | None = None):
        """Wrapper factory recording one span per call. `probe`, if given,
        maps the return value to a number stored with the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                rec = [label, clock(), 0.0, stack[-1] if stack else -1,
                       False, None]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[_END] = clock()
                    stack.pop()
                rec[_OK] = True
                if probe is not None:
                    rec[_VALUE] = probe(out)
                return out
            return traced
        return make

    def count(self, label: str):
        """Wrapper factory that only counts calls (no span, no timing)."""
        counts = self.counts
        counts.setdefault(label, 0)

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[label] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def write(self, path) -> None:
        """Write the spans as compact JSON: times relative to the first."""
        labels = sorted({s[_LABEL] for s in self.spans})
        index = {name: i for i, name in enumerate(labels)}
        t0 = self.spans[0][_START] if self.spans else 0.0
        rows = [[index[s[_LABEL]], round(s[_START] - t0, 9),
                 round(s[_END] - t0, 9), s[_PARENT], int(s[_OK])]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["label", "start_s", "end_s", "parent",
                                  "returned"],
                       "labels": labels, "spans": rows, "counts": self.counts},
                      fh, separators=(",", ":"))
            fh.write("\n")


@dataclass(frozen=True)
class Target:
    label: str
    module: str
    attr: str
    kind: str = "span"          # "span" or "count"
    everywhere: bool = True
    probe: Callable | None = None


def _inner_iterations(out):
    return out[1].inner_iterations


TARGETS = [
    # flow: the minimizing-movement step and its pieces
    Target("flow.run_flow", "bendflow.flow", "run_flow"),
    Target("flow.mm_step", "bendflow.flow", "mm_step", probe=_inner_iterations),
    Target("flow._mm_step_raw", "bendflow.flow", "_mm_step_raw"),
    Target("flow._kkt_arrays", "bendflow.flow", "_kkt_arrays"),
    Target("flow._solve_banded_mirror", "bendflow.flow", "_solve_banded_mirror"),
    Target("flow._build_report", "bendflow.flow", "_build_report"),
    Target("flow.interpolate_linear", "bendflow.flow", "interpolate_linear"),
    # discretization kernels (bound in discretization and in flow)
    Target("discretization._derivative_tables", "bendflow.discretization",
           "_derivative_tables"),
    Target("discretization._energy_raw", "bendflow.discretization", "_energy_raw"),
    Target("discretization._energy_gradient_raw", "bendflow.discretization",
           "_energy_gradient_raw"),
    Target("discretization._energy_hessian_bands", "bendflow.discretization",
           "_energy_hessian_bands"),
    Target("discretization.write_profile_csv", "bendflow.discretization",
           "write_profile_csv"),
    # special functions (bound in specialfn, flow, rearrange, critical, config)
    Target("specialfn.g", "bendflow.specialfn", "g"),
    Target("specialfn.g_inv", "bendflow.specialfn", "g_inv"),
    Target("specialfn.hyp2f1", "bendflow.specialfn", "hyp2f1"),
    Target("specialfn.h_of_A", "bendflow.specialfn", "h_of_A"),
    Target("specialfn.h_inv", "bendflow.specialfn", "h_inv"),
    Target("specialfn.u_c_profile", "bendflow.specialfn", "u_c_profile"),
    Target("specialfn.c0", "bendflow.specialfn", "c0", kind="count"),
    Target("specialfn.quad", "bendflow.specialfn", "quad", kind="count",
           everywhere=False),
    # critical point and rearrangement
    Target("critical.critical_profile", "bendflow.critical", "critical_profile"),
    Target("critical.quad", "bendflow.critical", "quad", kind="count",
           everywhere=False),
    Target("rearrange.talenti_comparison", "bendflow.rearrange",
           "talenti_comparison"),
    Target("rearrange._source_term", "bendflow.rearrange", "_source_term"),
    # CLI writers of `simulate`
    Target("cli._simulate_one", "bendflow.cli", "_simulate_one"),
    Target("cli._write_trajectory_csv", "bendflow.cli", "_write_trajectory_csv"),
    Target("cli._write_snapshot_csv", "bendflow.cli", "_write_snapshot_csv"),
    Target("svgplot.emit_plot", "bendflow.svgplot", "emit_plot"),
    Target("json.dump", "json", "dump", everywhere=False),
]


def install(tracer: Tracer, patcher: Patcher) -> None:
    for t in TARGETS:
        make = (tracer.count(t.label) if t.kind == "count"
                else tracer.span(t.label, t.probe))
        patcher.patch(t.module, t.attr, make, t.everywhere)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

VALIDATE_CHECKS = [
    "constants", "energy_oracle", "uc_energy", "gradient_consistency",
    "flow_inequalities", "symmetry_preservation", "finite_time_touching",
    "hypergeometric_layer", "critical_point", "flow_convergence", "talenti",
    "navier_boundary",
]

_SF_FUNCS = ["g", "g_inv", "hyp2f1", "h_of_A", "h_inv", "u_c_profile"]
_KERNELS = [("tables", "_derivative_tables"), ("energy", "_energy_raw"),
            ("gradient", "_energy_gradient_raw"),
            ("hessian", "_energy_hessian_bands")]
_CLI_WRITERS = ["cli._write_trajectory_csv", "cli._write_snapshot_csv",
                "svgplot.emit_plot"]
_CLI_UNDER_SIMULATE = ["flow.interpolate_linear",
                       "discretization.write_profile_csv", "json.dump"]


def _metric(name, unit, better, needs=()):
    return {"name": name, "unit": unit, "better": better, "needs": tuple(needs)}


def _build_catalogue():
    m = []
    mm = "flow.mm_step"
    m += [
        _metric("flow.steps", "count", "higher", [mm]),
        _metric("flow.rest_steps", "count", "higher", [mm]),
        _metric("flow.mm_step.calls", "count", "lower", [mm]),
        _metric("flow.mm_step.self_s", "s", "lower", [mm, "flow._mm_step_raw"]),
        _metric("flow.newton_iters", "count", "lower", [mm]),
        _metric("flow.newton_iters_per_step", "ratio", "lower", [mm]),
        _metric("flow.rest_step_frac", "ratio", "higher", [mm]),
        _metric("flow.hessian_builds", "count", "lower",
                [mm, "discretization._energy_hessian_bands"]),
        _metric("flow.phi_evals", "count", "lower",
                [mm, "discretization._energy_raw"]),
        _metric("flow.phi_evals_per_newton", "ratio", "lower",
                [mm, "discretization._energy_raw",
                 "discretization._energy_hessian_bands"]),
        _metric("flow.kkt_builds", "count", "lower", [mm, "flow._kkt_arrays"]),
        _metric("flow.kkt_builds_per_newton", "ratio", "lower",
                [mm, "flow._kkt_arrays", "discretization._energy_hessian_bands"]),
        _metric("flow.kkt.self_s", "s", "lower", [mm, "flow._kkt_arrays"]),
        _metric("flow.linear_solves", "count", "lower",
                [mm, "flow._solve_banded_mirror"]),
        _metric("flow.solves_per_newton", "ratio", "lower",
                [mm, "flow._solve_banded_mirror",
                 "discretization._energy_hessian_bands"]),
        _metric("flow.solve.self_s", "s", "lower",
                [mm, "flow._solve_banded_mirror"]),
        _metric("flow.report.self_s", "s", "lower", [mm, "flow._build_report"]),
        _metric("flow.run_flow.self_s", "s", "lower", ["flow.run_flow"]),
    ]
    for short, fn in _KERNELS:
        label = f"discretization.{fn}"
        m += [_metric(f"discretization.{short}.calls", "count", "lower", [label]),
              _metric(f"discretization.{short}.self_s", "s", "lower", [label])]
    for fn in _SF_FUNCS:
        label = f"specialfn.{fn}"
        m += [_metric(f"{label}.calls", "count", "lower", [label]),
              _metric(f"{label}.self_s", "s", "lower", [label])]
    m += [
        _metric("specialfn.c0.calls", "count", "lower", ["specialfn.c0"]),
        _metric("specialfn.quad.calls", "count", "lower", ["specialfn.quad"]),
        _metric("specialfn.g_per_g_inv", "ratio", "lower",
                ["specialfn.g", "specialfn.g_inv"]),
        _metric("critical.critical_profile.calls", "count", "lower",
                ["critical.critical_profile"]),
        _metric("critical.critical_profile.self_s", "s", "lower",
                ["critical.critical_profile"]),
        _metric("critical.quad.calls", "count", "lower", ["critical.quad"]),
        _metric("critical.polish_s", "s", "lower",
                ["critical.critical_profile", "flow._mm_step_raw"]),
        _metric("rearrange.talenti_comparison.self_s", "s", "lower",
                ["rearrange.talenti_comparison"]),
        _metric("rearrange.source_term.self_s", "s", "lower",
                ["rearrange._source_term"]),
    ]
    # runtime_s of each acceptance check, read from CheckResult.runtime_s of
    # the untraced unit (needs no span)
    m += [_metric(f"validate.{c}.runtime_s", "s", "lower") for c in VALIDATE_CHECKS]
    m += [
        _metric("cli.write_outputs_s", "s", "lower",
                ["cli._simulate_one"] + _CLI_WRITERS + _CLI_UNDER_SIMULATE),
        _metric("cli.trajectory_csv_bytes", "bytes", "lower"),
        _metric("trace.spans", "count", "lower"),
        _metric("trace.overhead_s", "s", "lower"),
        _metric("trace.overhead_frac", "ratio", "lower"),
    ]
    return m


PER_LAYER = _build_catalogue()

# Which end-to-end metric each layer should move, and on which workload.
LAYER_EFFECTS = {
    "flow": "node_steps_per_s and ok_frac on fine_ladder; little effect on "
            "validate_full",
    "flow.run_flow.self_s": "wall_s and peak_rss_mb on cone_rest; no effect "
                            "on fine_ladder",
    "discretization": "node_steps_per_s on fine_ladder and wall_s on "
                      "cone_rest (steps at rest still call each kernel)",
    "specialfn": "wall_s on validate_full and setup_s on every workload; no "
                 "effect on node_steps_per_s",
    "critical": "wall_s on validate_full and cone_rest (the L0 window calls "
                "critical_profile)",
    "rearrange": "wall_s on validate_full",
    "validate": "wall_s on validate_full; the checks sum to about it",
    "cli": "wall_s and peak_rss_mb on cone_rest",
    "trace": "none: cost of the tracing itself",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values computed from the spans of one traced unit.

    Everything named flow.* counts work under `mm_step` only, so the
    proximal polish inside `critical_profile` is reported as
    critical.polish_s instead. Metrics whose values come from outside the
    spans (validate, cli bytes, trace overhead) are added by the caller.
    """
    spans = tracer.spans
    n = len(spans)
    child = [0.0] * n
    under_mm = [-1] * n        # index of the nearest enclosing mm_step span
    under_sim = [False] * n    # inside cli._simulate_one
    for i, s in enumerate(spans):
        p = s[_PARENT]
        if p >= 0:
            child[p] += s[_END] - s[_START]
        if s[_LABEL] == "flow.mm_step":
            under_mm[i] = i
        elif p >= 0:
            under_mm[i] = under_mm[p]
        under_sim[i] = s[_LABEL] == "cli._simulate_one" or (
            p >= 0 and under_sim[p])

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    mm_calls: dict[str, int] = {}
    mm_self: dict[str, float] = {}
    steps = newton = rest = 0
    g_in_ginv = 0
    polish = 0.0
    writers = 0.0
    for i, s in enumerate(spans):
        label = s[_LABEL]
        dur = s[_END] - s[_START]
        own = dur - child[i]
        calls[label] = calls.get(label, 0) + 1
        self_s[label] = self_s.get(label, 0.0) + own
        if under_mm[i] >= 0 and label != "flow.mm_step":
            mm_calls[label] = mm_calls.get(label, 0) + 1
            mm_self[label] = mm_self.get(label, 0.0) + own
        parent = spans[s[_PARENT]][_LABEL] if s[_PARENT] >= 0 else None
        if label == "flow.mm_step" and s[_OK]:
            steps += 1
            newton += s[_VALUE]
            rest += s[_VALUE] == 0
        elif label == "specialfn.g" and parent == "specialfn.g_inv":
            g_in_ginv += 1
        elif label == "flow._mm_step_raw" and parent == "critical.critical_profile":
            polish += dur
        if label in _CLI_WRITERS or (label in _CLI_UNDER_SIMULATE and under_sim[i]):
            writers += dur

    hess = mm_calls.get("discretization._energy_hessian_bands", 0)
    phi = mm_calls.get("discretization._energy_raw", 0)
    kkt = mm_calls.get("flow._kkt_arrays", 0)
    solves = mm_calls.get("flow._solve_banded_mirror", 0)
    out = {
        "flow.steps": steps,
        "flow.rest_steps": rest,
        "flow.mm_step.calls": calls.get("flow.mm_step", 0),
        "flow.mm_step.self_s": (self_s.get("flow.mm_step", 0.0)
                                + mm_self.get("flow._mm_step_raw", 0.0)),
        "flow.newton_iters": newton,
        "flow.newton_iters_per_step": _ratio(newton, steps),
        "flow.rest_step_frac": _ratio(rest, steps),
        "flow.hessian_builds": hess,
        "flow.phi_evals": phi,
        "flow.phi_evals_per_newton": _ratio(phi, hess),
        "flow.kkt_builds": kkt,
        "flow.kkt_builds_per_newton": _ratio(kkt, hess),
        "flow.kkt.self_s": mm_self.get("flow._kkt_arrays", 0.0),
        "flow.linear_solves": solves,
        "flow.solves_per_newton": _ratio(solves, hess),
        "flow.solve.self_s": mm_self.get("flow._solve_banded_mirror", 0.0),
        "flow.report.self_s": mm_self.get("flow._build_report", 0.0),
        "flow.run_flow.self_s": self_s.get("flow.run_flow", 0.0),
    }
    for short, fn in _KERNELS:
        label = f"discretization.{fn}"
        out[f"discretization.{short}.calls"] = calls.get(label, 0)
        out[f"discretization.{short}.self_s"] = self_s.get(label, 0.0)
    for fn in _SF_FUNCS:
        label = f"specialfn.{fn}"
        out[f"{label}.calls"] = calls.get(label, 0)
        out[f"{label}.self_s"] = self_s.get(label, 0.0)
    out.update({
        "specialfn.c0.calls": tracer.counts.get("specialfn.c0", 0),
        "specialfn.quad.calls": tracer.counts.get("specialfn.quad", 0),
        "specialfn.g_per_g_inv": _ratio(g_in_ginv,
                                        calls.get("specialfn.g_inv", 0)),
        "critical.critical_profile.calls": calls.get("critical.critical_profile", 0),
        "critical.critical_profile.self_s": self_s.get("critical.critical_profile", 0.0),
        "critical.quad.calls": tracer.counts.get("critical.quad", 0),
        "critical.polish_s": polish,
        "rearrange.talenti_comparison.self_s":
            self_s.get("rearrange.talenti_comparison", 0.0),
        "rearrange.source_term.self_s": self_s.get("rearrange._source_term", 0.0),
        "cli.write_outputs_s": writers,
        "trace.spans": n,
    })
    return out


def newton_in_completed_runs(tracer: Tracer) -> int:
    """Tracer-side Newton count: Hessian builds (one per Newton iteration)
    under mm_step calls that returned, inside run_flow calls that returned.
    Equals the sum of Trajectory.inner_iterations of those runs."""
    spans = tracer.spans
    ok_mm = [False] * len(spans)
    in_ok_run = [False] * len(spans)
    total = 0
    for i, s in enumerate(spans):
        p = s[_PARENT]
        label = s[_LABEL]
        ok_mm[i] = (label == "flow.mm_step" and s[_OK]) or (p >= 0 and ok_mm[p])
        in_ok_run[i] = (label == "flow.run_flow" and s[_OK]) or (
            p >= 0 and in_ok_run[p])
        if (label == "discretization._energy_hessian_bands"
                and ok_mm[i] and in_ok_run[i]):
            total += 1
    return total


def missing_metrics(missing_targets: list[str]) -> list[str]:
    """Names of per-layer metrics that need a target which was not found."""
    gone = set()
    for t in TARGETS:
        if f"{t.module}.{t.attr}" in missing_targets:
            gone.add(t.label)
    return [m["name"] for m in PER_LAYER if gone.intersection(m["needs"])]
