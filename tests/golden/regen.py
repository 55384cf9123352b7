#!/usr/bin/env python3
"""Regenerate the golden outputs under tests/golden/.

    PYTHONPATH=src python tests/golden/regen.py [SLICE ...]

Each slice is one directory: the CLI calls in `SLICES`, run from inside
it, leave their files there, next to their concatenated standard output
and error and environment.json, the Python, numpy and scipy versions that
produced the bytes.

- cone_short: `bendflow simulate` on the acceptance cone (height 0.02, u_c
  with c = 0.5, N = 200, tau = 1e-3) over T = 0.1 with snapshots at 0.05
  and 0.1: 14 steps that do Newton work, then 86 steps at rest.
- cone_resume: the same `simulate`, resumed from cone_short's checkpoint
  (`--resume`) on to T = 0.2: one step that does Newton work, on the
  profile read back from final.csv, then 99 steps at rest. Its files
  count time from the start of cone_short, as summary.json does:
  snapshot_t0.15.csv and snapshot_t0.2.csv, trajectory steps 101-200.
- rearrange: `bendflow rearrange` of cone_short's final.csv.
- specialfn: `bendflow specialfn eval` of each of the six functions.
- fingerprints: `run_flow` on the ladder (the acceptance cone with c = 0.5,
  N in {200, 400, 800, 1600, 3200}, tau in {1e-3, 1e-5, 1e-7}, 20 steps)
  and on 100 random draws (seeds 0-49, plain and mirrored, 10 steps;
  `random_draw`).
  Each case keeps, in fingerprints.json, the SHA-256 of the bits of every
  iterate, the Newton total, the final energy and the final sup norm, or
  the typed failure's step index and message.

tests/test_golden.py regenerates every slice and compares it with these
files. A change that moves any of these bytes regenerates them with this
script and names each changed file in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import sys
from pathlib import Path

import numpy as np
import scipy

GOLDEN = Path(__file__).resolve().parent
ENV_FILE = "environment.json"
CONFIG_FILE = "config.json"
CONE_CONFIG = {
    "grid_n": 200, "tau": 1e-3, "t_end": 0.1, "inner_tol": 1e-8,
    "obstacle": {"type": "cone", "height": 0.02},
    "initial": {"type": "uc", "c": 0.5},
    "outputs": {"trajectory_csv": "trajectory.csv",
                "snapshots": [0.05, 0.1],
                "plot_svg": "profiles.svg",
                "summary_json": "summary.json"},
}
_SPECIALFN_ARGS = [("g", ["1.0"]), ("ginv", ["0.5"]), ("c0", []),
                   ("h", ["0.7"]), ("hinv", ["0.3"]), ("uc", ["0.5", "0.25"])]

# slice name -> (JSON input files written first, CLI argument lists)
SLICES = {
    "cone_short": ({CONFIG_FILE: CONE_CONFIG},
                   [["simulate", "--config", CONFIG_FILE, "--out", "."]]),
    "cone_resume": ({CONFIG_FILE: CONE_CONFIG},
                    [["simulate", "--config", CONFIG_FILE, "--resume",
                      str(GOLDEN / "cone_short"), "--out", "."]]),
    "rearrange": ({}, [["rearrange", "--input",
                        str(GOLDEN / "cone_short" / "final.csv"),
                        "--out", "pair.csv"]]),
    "specialfn": ({}, [["specialfn", "eval", "--fn", fn, "--args", *args]
                       for fn, args in _SPECIALFN_ARGS]),
}


FINGERPRINTS = "fingerprints"
LADDER_NS = (200, 400, 800, 1600, 3200)
LADDER_TAUS = (1e-3, 1e-5, 1e-7)
DRAW_SEEDS = range(50)


def random_draw(seed: int, symmetric: bool):
    """A random admissible start above a random cone, with its time step.
    Plain draws are not mirror-symmetric; a symmetric draw mirrors the
    left half of the plain draw of the same seed."""
    from bendflow import UniformGrid, cone_obstacle

    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 65))
    tau = 10 ** rng.uniform(-7, -3)
    height = rng.uniform(0.005, 0.1)
    coef = rng.normal(size=4) * 0.05 / np.arange(1, 5)
    grid = UniformGrid(n)
    obstacle = cone_obstacle(height, grid)
    x = grid.nodes
    u0 = np.maximum(obstacle.samples.values, sum(
        coef[k] * np.sin((k + 1) * np.pi * x) for k in range(4)))
    u0[0] = u0[-1] = 0.0
    if symmetric:
        m = n // 2
        u0[n - m:] = u0[:m + 1][::-1]
    return u0, obstacle, tau


def _flow_cases():
    """(name, u0, obstacle, FlowConfig) of every fingerprinted case."""
    from bendflow import FlowConfig, GridFunction, UniformGrid, cone_obstacle
    from bendflow import u_c_profile

    for n in LADDER_NS:
        grid = UniformGrid(n)
        u0, obstacle = u_c_profile(0.5, grid), cone_obstacle(0.02, grid)
        for tau in LADDER_TAUS:
            yield (f"ladder N={n} tau={tau:g}", u0, obstacle,
                   FlowConfig(tau=tau, t_end=20 * tau))
    for seed in DRAW_SEEDS:
        for symmetric in (False, True):
            u0, obstacle, tau = random_draw(seed, symmetric)
            yield (f"draw seed={seed}{' symmetric' if symmetric else ''}",
                   GridFunction(obstacle.grid, u0), obstacle,
                   FlowConfig(tau=tau, t_end=10 * tau))


def fingerprints() -> dict:
    """Case name -> fingerprint of its run (see the module docstring)."""
    from bendflow import BendflowError, run_flow

    out = {}
    for name, u0, obstacle, cfg in _flow_cases():
        try:
            traj = run_flow(u0, obstacle, cfg)
        except BendflowError as err:
            out[name] = {"failure": type(err).__name__,
                         "step": err.step_index, "message": str(err)}
            continue
        digest = hashlib.sha256()
        for u in traj.iterates:
            digest.update(u.values.tobytes())
        out[name] = {"sha256": digest.hexdigest(),
                     "newton": int(traj.inner_iterations.sum()),
                     "final_energy": float(traj.energies[-1]),
                     "sup_norm": float(np.abs(traj.iterates[-1].values).max())}
    return out


def environment() -> dict:
    """The versions whose builds fix the bits of the outputs."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def generate(name: str, out: Path) -> None:
    """Run slice `name` and write every golden file of it to out/, which
    must not exist yet."""
    from bendflow import cli

    out.mkdir(parents=True)
    (out / ENV_FILE).write_text(json.dumps(environment(), indent=2,
                                           sort_keys=True) + "\n")
    if name == FINGERPRINTS:
        (out / f"{FINGERPRINTS}.json").write_text(
            json.dumps(fingerprints(), indent=1) + "\n")
        return
    inputs, runs = SLICES[name]
    for fname, data in inputs.items():
        (out / fname).write_text(json.dumps(data, indent=2) + "\n")
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(out)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            codes = [cli.main(argv) for argv in runs]
    finally:
        os.chdir(cwd)
    if any(codes):
        raise RuntimeError(f"{name} exited {codes}: {stderr.getvalue()}")
    (out / "stdout.txt").write_text(stdout.getvalue())
    (out / "stderr.txt").write_text(stderr.getvalue())


def main(names) -> int:
    for name in names or [*SLICES, FINGERPRINTS]:
        target = GOLDEN / name
        if target.exists():
            shutil.rmtree(target)
        generate(name, target)
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
