#!/usr/bin/env python3
"""Print every benchmark metric: one command for the whole picture.

    python3 bench/report.py [--seeds 10] [--first-seed 1]

For each workload in BENCHMARK.json it makes `--seeds` untraced runs (seeds
first-seed, first-seed+1, ...) through bench/run.py with the run length from
BENCHMARK.json, and prints each end-to-end metric by name with its unit: the
median over the runs, the quartiles, and the spread (q3 - q1) / median
against the metric's bound. For the times it also prints the spread of the
same runs before scaling to the reference speed. It then makes one traced
run per workload and prints the per-layer metrics (or lists them as
missing), the failing cases, and which end-to-end metric each layer should
move. Everything is also written to bench/out/report.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}"
    out["record"] = json.loads((BENCH / "out" / "results" / f"{tag}.json")
                               .read_text())
    out["elapsed_s"] = elapsed
    return out


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)

    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    report = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    for wl in [w["name"] for w in SPEC["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            r = run(wl, seed, 0)
            runs.append({"seed": seed, "correct": r["correct"],
                         "attempted": r["attempted"], "failed": r["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in r["metrics"].items()},
                         "raw": r["record"]["raw_metrics"],
                         "elapsed_s": r["elapsed_s"]})
            print(f"[{wl} seed {seed}, {r['elapsed_s']:.0f} s] "
                  f"correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()),
                  flush=True)
        r = run(wl, args.first_seed, 1)
        report["workloads"][wl] = {
            "runs": runs,
            "trace": {"seed": args.first_seed, "correct": r["correct"],
                      "metrics": r["metrics"],
                      "missing": r["record"]["missing_per_layer"],
                      "failures": r["record"]["failures"],
                      "counters": r["record"]["counters"][1]}}

    print()
    for wl, entry in report["workloads"].items():
        runs = entry["runs"]
        print(f"== {wl} ({len(runs)} runs, {SPEC['run_seconds']} s each)")
        print(f"  {'metric':<18} {'unit':<6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6} {'raw spread':>10}")
        summary = {}
        for name, m in bounds.items():
            med, q1, q3, sp = spread([r["metrics"][name] for r in runs])
            raw_sp = (spread([r["raw"][name] for r in runs])[3]
                      if m["unit"] in ("s", "1/s") else sp)
            flag = ("" if sp <= m["bound"] / 3 else
                    "  > bound/3" if sp <= m["bound"] else "  > BOUND")
            print(f"  {name:<18} {m['unit']:<6} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {sp:>8.4f} {m['bound']:>6} {raw_sp:>10.4f}"
                  f"{flag}")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                             "raw_spread": raw_sp}
        entry["summary"] = summary
        bad = [r for r in runs if not r["correct"]]
        print(f"  incorrect runs: {len(bad)}")
        t = entry["trace"]
        print(f"  traced run (seed {t['seed']}), counters {t['counters']}:")
        for name, m in t["metrics"].items():
            print(f"    {name:<40} {m['value']:>14.6g} {m['unit']}")
        if t["missing"]:
            print(f"    missing: {', '.join(t['missing'])}")
        for f in t["failures"]:
            if f.get("unit") == 0:
                print(f"    failed: {json.dumps(f)}")
        print()
    print("== which end-to-end metric each layer should move")
    for layer, effect in tracing.LAYER_EFFECTS.items():
        print(f"  {layer:<22} {effect}")
    out = BENCH / "out" / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwritten to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
