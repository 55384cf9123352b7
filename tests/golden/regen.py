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
  profile read back from final.csv, then 99 steps at rest.
- rearrange: `bendflow rearrange` of cone_short's final.csv.
- specialfn: `bendflow specialfn eval` of each of the six functions.

tests/test_golden.py regenerates every slice and compares it with these
files. A change that moves any of these bytes regenerates them with this
script and names each changed file in CHANGES.md.
"""

from __future__ import annotations

import contextlib
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


def environment() -> dict:
    """The versions whose builds fix the bits of the outputs."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def generate(name: str, out: Path) -> None:
    """Run slice `name` and write every golden file of it to out/, which
    must not exist yet."""
    from bendflow import cli

    inputs, runs = SLICES[name]
    out.mkdir(parents=True)
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
    (out / ENV_FILE).write_text(json.dumps(environment(), indent=2,
                                           sort_keys=True) + "\n")


def main(names) -> int:
    for name in names or SLICES:
        target = GOLDEN / name
        if target.exists():
            shutil.rmtree(target)
        generate(name, target)
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
