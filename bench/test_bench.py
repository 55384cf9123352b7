"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

The traced-unit tests start real workload units (about a minute in all).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Each binding the program makes of a traced function outside its defining
# module; the tracer must reach all of them or it undercounts.
IMPORTED_BINDINGS = [
    ("bendflow.flow", "_energy_raw"),
    ("bendflow.flow", "_energy_gradient_raw"),
    ("bendflow.flow", "_energy_hessian_bands"),
    ("bendflow.flow", "_derivative_tables"),
    ("bendflow.flow", "g"),
    ("bendflow.flow", "g_inv"),
    ("bendflow.rearrange", "c0"),
    ("bendflow.rearrange", "g"),
    ("bendflow.rearrange", "g_inv"),
    ("bendflow.critical", "h_inv"),
    ("bendflow.critical", "h_of_A"),
    ("bendflow.config", "u_c_profile"),
]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert spec["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in tracing.PER_LAYER]


def test_every_binding_is_patched_and_restored():
    import bendflow.cli  # noqa: F401

    originals = {(m, a): getattr(sys.modules[m], a)
                 for m, a in IMPORTED_BINDINGS}
    patcher = tracing.Patcher()
    tracing.install(tracing.Tracer(), patcher)
    try:
        assert patcher.missing == []
        for (m, a), orig in originals.items():
            now = getattr(sys.modules[m], a)
            assert now is not orig and now.__wrapped__ is orig, f"{m}.{a}"
    finally:
        patcher.restore()
    for (m, a), orig in originals.items():
        assert getattr(sys.modules[m], a) is orig


def test_missing_target_is_reported_not_fatal():
    patcher = tracing.Patcher()
    assert not patcher.patch("bendflow.flow", "no_such_function", lambda f: f)
    assert not patcher.patch("bendflow.no_such_module", "f", lambda f: f)
    assert patcher.missing == ["bendflow.flow.no_such_function",
                               "bendflow.no_such_module.f"]
    gone = tracing.missing_metrics(["bendflow.flow._kkt_arrays"])
    assert {"flow.kkt_builds", "flow.kkt_builds_per_newton",
            "flow.kkt.self_s"} <= set(gone)
    assert "flow.newton_iters" not in gone


def _traced_unit(workload: str, i: int) -> dict:
    wl = workloads.WORKLOADS[workload]
    spec = {
        "workload": workload,
        "inputs": wl.inputs(0, 1)[0],
        "workdir": str(BENCH / "out" / "test" / f"{workload}-{i}"),
        "trace": True,
        "spans_path": str(BENCH / "out" / "test" / f"{workload}-{i}.json"),
        "src": str(ROOT / "src"),
    }
    return run.run_unit(spec, time.monotonic() + 170.0)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat_and_match_trajectories(workload):
    a, b = _traced_unit(workload, 0), _traced_unit(workload, 1)
    counts = [m["name"] for m in tracing.PER_LAYER
              if m["unit"] == "count" and m["name"] in a["layers"]]
    assert counts
    assert {k: a["layers"][k] for k in counts} == {k: b["layers"][k] for k in counts}
    assert a["counters"] == b["counters"]
    assert a["fingerprint"] == b["fingerprint"]
    for u in (a, b):
        assert u["traced_newton_in_completed_runs"] == u["counters"]["newton_iters"]
        assert u["correct"], u["problems"]


def test_failed_validate_check_makes_the_run_incorrect(tmp_path):
    out = tmp_path / "validate_out"
    out.mkdir()
    checks = [{"name": "constants", "status": "pass", "runtime_s": 0.1},
              {"name": "talenti", "status": "fail", "runtime_s": 0.2}]
    (out / "validation_report.json").write_text(
        json.dumps({"overall": "fail", "checks": checks}))
    res = workloads.ValidateFull.check({"out": out}, 1)
    assert (res["attempted"], res["failed"]) == (2, 1)
    assert not res["correct"]
    assert any("talenti" in p for p in res["problems"])


def test_broken_cone_step_makes_the_run_incorrect(tmp_path):
    out = tmp_path / "cone_out"
    out.mkdir()
    rows = ["step,energy,step_l2,symmetry_residual", "1,0.25,0.0,0",
            "2,0.26,0.0,0"]  # the second step raises the energy
    (out / "trajectory.csv").write_text("\n".join(rows) + "\n")
    res = workloads.ConeRest.check({"out": out, "e0": 0.25}, 0)
    assert not res["correct"]
    assert res["failed"] == 1 + workloads.CONE_STEPS - 2
    assert any("break descent" in p for p in res["problems"])
