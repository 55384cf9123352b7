#!/usr/bin/env python3
"""Regenerate the golden outputs under tests/golden/.

    PYTHONPATH=src python tests/golden/regen.py

cone_short/ holds what `bendflow simulate` writes for the acceptance cone
(height 0.02, u_c with c = 0.5, N = 200, tau = 1e-3) over a short horizon,
T = 0.1 with snapshots at 0.05 and 0.1: 14 steps that do Newton work, then
86 steps at rest. Next to the run's files sit its standard output and
error, the configuration and environment.json, the Python, numpy and scipy
versions that produced the bytes. tests/test_golden.py regenerates the
files and compares them with these. A change that moves any of these bytes
regenerates them with this script and names each changed file in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import shutil
import sys
from pathlib import Path

import numpy as np
import scipy

GOLDEN = Path(__file__).resolve().parent
CONE_SHORT = "cone_short"
CONFIG = {
    "grid_n": 200, "tau": 1e-3, "t_end": 0.1, "inner_tol": 1e-8,
    "obstacle": {"type": "cone", "height": 0.02},
    "initial": {"type": "uc", "c": 0.5},
    "outputs": {"trajectory_csv": "trajectory.csv",
                "snapshots": [0.05, 0.1],
                "plot_svg": "profiles.svg",
                "summary_json": "summary.json"},
}
ENV_FILE = "environment.json"
CONFIG_FILE = "config.json"


def environment() -> dict:
    """The versions whose builds fix the bits of the outputs."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def generate(out: Path) -> None:
    """Run the cone_short simulation and write every golden file to out/,
    which must not exist yet."""
    from bendflow import cli

    out.mkdir(parents=True)
    (out / CONFIG_FILE).write_text(json.dumps(CONFIG, indent=2) + "\n")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(["simulate", "--config", str(out / CONFIG_FILE),
                       "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"simulate exited {rc}: {stderr.getvalue()}")
    (out / "stdout.txt").write_text(stdout.getvalue())
    (out / "stderr.txt").write_text(stderr.getvalue())
    (out / ENV_FILE).write_text(json.dumps(environment(), indent=2,
                                           sort_keys=True) + "\n")


def main() -> int:
    target = GOLDEN / CONE_SHORT
    if target.exists():
        shutil.rmtree(target)
    generate(target)
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
