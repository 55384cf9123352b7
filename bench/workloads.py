"""The three benchmark workloads.

Each workload defines
  - `inputs(seed, units)`: the generated inputs of each unit of a run;
  - `setup(inputs, workdir)`: everything up to "inputs ready", run in the
    unit's fresh process before the timed section;
  - `run(state)`: the timed section;
  - `check(state, outcome)`: verification of the program's outputs, with
    the operation counts (attempted, failed) of the unit;
  - `same_inputs`: whether every unit of a run repeats one input.

Inputs. The cone is always height 0.02 and u0 = u_c, with c in
C_RANGE = [0.45, 0.55], where u_c lies above the cone at every node and
E(u_c) ~ c^2 <= 0.3025 < G(sqrt(2/3))^2 ~ 0.4325; setup checks both. Seed 0
reproduces c = 0.5 (the acceptance configuration). cone_rest draws its c
uniformly from C_RANGE. Which fine_ladder cases fail is chaotic in c (a
change of 1e-5 in c changes the failing set), so fine_ladder draws its
ladders' c without replacement from the 11-point grid C_GRID spanning
C_RANGE: the seed picks which ladders run and in what order, while runs of
different seeds still share most of their ladders and so stay comparable.
validate_full has no inputs: the program keeps its own fixed RNG seeds.

Failures. Every acceptance check passes and every cone_rest step keeps
descent, dissipation and bitwise symmetry at the benchmark's baseline, so a
failed check or a broken step makes the run incorrect. fine_ladder carries
the solver's known nonconvergence: its failing cases are counted in
`failed` and listed, and only an untyped failure makes the run incorrect.

This module imports bendflow only inside functions, so the parent process
can read the workload definitions without the program being present.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from pathlib import Path

CONE_HEIGHT = 0.02
INNER_TOL = 1e-8
SEED0_C = 0.5
C_RANGE = (0.45, 0.55)
C_GRID = tuple(round(0.45 + 0.01 * i, 2) for i in range(11))

CONE_N = 200
CONE_TAU = 1e-3
CONE_T_END = 10.0
CONE_STEPS = 10000
CONE_SNAPSHOTS = [1.0, 2.0, 5.0, 10.0]

LADDER_NS = (200, 400, 800, 1600, 3200)
LADDER_TAUS = (1e-3, 1e-5, 1e-7)
LADDER_STEPS = 20
LADDERS_PER_UNIT = 2  # amortises a unit's process start over two ladders

# Slack on the per-step descent and dissipation inequalities, the same
# 1e-11 * max(1, E0) the acceptance check `flow_inequalities` uses.
SLACK_REL = 1e-11


def draw_c(seed: int) -> float:
    """One c from C_RANGE; seed 0 gives 0.5."""
    return SEED0_C if seed == 0 else round(
        random.Random(seed).uniform(*C_RANGE), 6)


def draw_grid_cs(seed: int, count: int) -> list[float]:
    """`count` values of C_GRID, without replacement within each pass over
    the grid; seed 0 starts with 0.5."""
    rng = random.Random(seed)
    cs: list[float] = []
    while len(cs) < count:
        cs += rng.sample(C_GRID, len(C_GRID))
    cs = cs[:count]
    if seed == 0 and cs:
        if SEED0_C in cs:
            cs.remove(SEED0_C)
            cs.insert(0, SEED0_C)
        else:
            cs[0] = SEED0_C
    return cs


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


def _admissible_uc(c: float, n: int):
    """Obstacle and u_c on an n-cell grid, checked against the input range."""
    from bendflow import discretization as disc
    from bendflow import specialfn as sf
    from bendflow.validate import G23_SQ_REF

    grid = disc.UniformGrid(n)
    obstacle = disc.cone_obstacle(CONE_HEIGHT, grid)
    u0 = sf.u_c_profile(c, grid)
    if (u0.values < obstacle.samples.values).any():
        raise ValueError(f"u_c with c={c} dips below the cone at N={n}")
    e0 = disc.energy(u0)
    if not e0 < G23_SQ_REF:
        raise ValueError(f"E(u_c)={e0} is not below G(sqrt(2/3))^2 at c={c}")
    return obstacle, u0, e0


# ---------------------------------------------------------------------------
# validate_full
# ---------------------------------------------------------------------------

class ValidateFull:
    name = "validate_full"
    why = ("full bendflow validate: specialfn, critical and rearrange do most "
           "of the work and Newton steps little")
    nominal_unit_s = 3.0
    same_inputs = True

    @staticmethod
    def inputs(seed, units):
        return [{} for _ in range(units)]

    @staticmethod
    def setup(inputs, workdir):
        from bendflow import specialfn as sf
        sf.c0()
        return {"out": Path(workdir) / "validate_out"}

    @staticmethod
    def run(state):
        from bendflow import cli
        return cli.main(["validate", "--out", str(state["out"])])

    @staticmethod
    def check(state, rc):
        problems = []
        path = state["out"] / "validation_report.json"
        try:
            report = json.loads(path.read_text())
            checks = report["checks"]
        except (OSError, ValueError, KeyError) as err:
            return {"attempted": 1, "failed": 1, "correct": False,
                    "problems": [f"no readable validation report: {err}"],
                    "failures": [], "fingerprint": ""}
        failed = [c["name"] for c in checks if c["status"] != "pass"]
        expected_rc = 0 if not failed else 1
        if rc != expected_rc:
            problems.append(f"exit code {rc}, report implies {expected_rc}")
        if (report["overall"] == "pass") != (not failed):
            problems.append("overall status disagrees with the checks")
        if failed:  # every check passes at the benchmark's baseline
            problems.append(f"acceptance checks failed: {', '.join(failed)}")
        for c in checks:
            c.pop("runtime_s", None)
        fp = _sha(json.dumps(checks, sort_keys=True).encode())
        return {"attempted": len(checks), "failed": len(failed),
                "correct": not problems, "problems": problems,
                "failures": [{"check": name} for name in failed],
                "fingerprint": fp}


# ---------------------------------------------------------------------------
# cone_rest
# ---------------------------------------------------------------------------

_TRAJ_CSV = "trajectory.csv"


class ConeRest:
    name = "cone_rest"
    why = ("bendflow simulate on the acceptance cone to T=10: almost every "
           "step is at rest, so per-step bookkeeping and the writers dominate")
    nominal_unit_s = 4.0
    same_inputs = True

    @staticmethod
    def inputs(seed, units):
        c = draw_c(seed)
        config = {
            "grid_n": CONE_N, "tau": CONE_TAU, "t_end": CONE_T_END,
            "inner_tol": INNER_TOL,
            "obstacle": {"type": "cone", "height": CONE_HEIGHT},
            "initial": {"type": "uc", "c": c},
            "outputs": {"trajectory_csv": _TRAJ_CSV,
                        "snapshots": CONE_SNAPSHOTS,
                        "plot_svg": "profiles.svg",
                        "summary_json": "summary.json"},
        }
        return [{"c": c, "config": config} for _ in range(units)]

    @staticmethod
    def setup(inputs, workdir):
        from bendflow.config import load_config

        workdir = Path(workdir)
        cfg_path = workdir / "cone_rest.json"
        cfg_path.write_text(json.dumps(inputs["config"], indent=2) + "\n")
        load_config(cfg_path)
        _, _, e0 = _admissible_uc(inputs["c"], CONE_N)
        return {"cfg_path": cfg_path, "out": workdir / "cone_out", "e0": e0}

    @staticmethod
    def run(state):
        from bendflow import cli
        return cli.main(["simulate", "--config", str(state["cfg_path"]),
                         "--out", str(state["out"])])

    @staticmethod
    def check(state, rc):
        out, e0 = state["out"], state["e0"]
        problems = []
        slack = SLACK_REL * max(1.0, e0)
        traj_path = out / _TRAJ_CSV
        rows = []
        if rc == 0:
            try:
                with open(traj_path, newline="") as fh:
                    rows = list(csv.DictReader(fh))
            except OSError as err:
                problems.append(f"trajectory CSV unreadable: {err}")
        failures = []   # the first few failing steps, for the record
        n_bad = 0
        prev_e = e0
        for k, row in enumerate(rows[:CONE_STEPS], start=1):
            e = float(row["energy"])
            dl2 = float(row["step_l2"])
            broken = []
            if e > prev_e + slack:
                broken.append("descent")
            if dl2 * dl2 / (2.0 * CONE_TAU) > prev_e - e + slack:
                broken.append("dissipation")
            if float(row["symmetry_residual"]) != 0.0:
                broken.append("symmetry")
            if broken:
                n_bad += 1
                if len(failures) < 20:
                    failures.append({"step": k, "broken": broken})
            prev_e = e
        missing = CONE_STEPS - min(len(rows), CONE_STEPS)
        if len(rows) > CONE_STEPS:
            problems.append(f"{len(rows)} trajectory rows for {CONE_STEPS} steps")
        if missing:
            failures.append({"steps_never_reached": missing, "exit_code": rc})
        if n_bad or missing:  # every step holds at the benchmark's baseline
            problems.append(f"{n_bad} steps break descent, dissipation or "
                            f"symmetry and {missing} were never reached")
        chunks = []
        if rc == 0:
            try:
                summary = json.loads((out / "summary.json").read_text())
                if summary["steps"] != CONE_STEPS:
                    problems.append(f"summary reports {summary['steps']} steps")
                if rows and f"{summary['final_energy']:.15g}" != rows[-1]["energy"]:
                    problems.append("summary final energy differs from the "
                                    "last trajectory row")
                names = [_TRAJ_CSV, "summary.json", "final.csv", "profiles.svg"]
                names += [f"snapshot_t{t:g}.csv" for t in CONE_SNAPSHOTS]
                for name in names:
                    data = (out / name).read_bytes()
                    if not data:
                        problems.append(f"{name} is empty")
                    chunks.append(data)
            except (OSError, ValueError, KeyError) as err:
                problems.append(f"missing or malformed output: {err}")
        elif rc not in (1, 2, 3):
            problems.append(f"undocumented exit code {rc}")
        traj_bytes = traj_path.stat().st_size if traj_path.exists() else 0
        return {"attempted": CONE_STEPS, "failed": n_bad + missing,
                "correct": not problems, "problems": problems,
                "failures": failures, "fingerprint": _sha(*chunks),
                "trajectory_csv_bytes": traj_bytes}


# ---------------------------------------------------------------------------
# fine_ladder
# ---------------------------------------------------------------------------

class FineLadder:
    name = "fine_ladder"
    why = ("run_flow on N in 200..3200 x tau in 1e-3..1e-7, 20 steps each: "
           "every step does Newton work, and the solver's known failures show")
    # Below a unit's true cost (about 9 s at the reference speed), so that a
    # 25 s run holds five units, ten ladders: fewer leave wall_s and
    # node_steps_per_s too noisy on a shared host.
    nominal_unit_s = 5.0
    same_inputs = False

    @staticmethod
    def inputs(seed, units):
        cs = draw_grid_cs(seed, units * LADDERS_PER_UNIT)
        return [{"cs": cs[i:i + LADDERS_PER_UNIT], "ns": list(LADDER_NS),
                 "taus": list(LADDER_TAUS), "steps": LADDER_STEPS}
                for i in range(0, len(cs), LADDERS_PER_UNIT)]

    @staticmethod
    def setup(inputs, workdir):
        grids = {(c, n): _admissible_uc(c, n)
                 for c in inputs["cs"] for n in inputs["ns"]}
        return {"inputs": inputs, "grids": grids}

    @staticmethod
    def run(state):
        from bendflow import flow as fl

        inputs = state["inputs"]
        cases = []
        for c in inputs["cs"]:
            for n in inputs["ns"]:
                obstacle, u0, _ = state["grids"][c, n]
                for tau in inputs["taus"]:
                    cfg = fl.FlowConfig(tau=tau, t_end=inputs["steps"] * tau,
                                        inner_tol=INNER_TOL)
                    try:
                        result = fl.run_flow(u0, obstacle, cfg)
                    except Exception as err:  # recorded per case
                        result = err
                    cases.append((c, n, tau, result))
        return cases

    @staticmethod
    def check(state, cases):
        import numpy as np
        from bendflow.errors import BendflowError

        steps = state["inputs"]["steps"]
        problems, failures, chunks = [], [], []
        for c, n, tau, result in cases:
            case = {"c": c, "N": n, "tau": tau}
            where = f"c={c} N={n} tau={tau:g}"
            if isinstance(result, BaseException):
                step = getattr(result, "step_index", None)
                case.update(error=type(result).__name__, step_index=step,
                            message=str(result))
                if not isinstance(result, BendflowError):
                    problems.append(f"{where}: untyped failure "
                                    f"{type(result).__name__}: {result}")
                elif not isinstance(step, int):
                    problems.append(f"{where}: failure carries no step index")
                failures.append(case)
                chunks.append(repr(case).encode())
                continue
            traj = result
            en = traj.energies
            slack = SLACK_REL * max(1.0, float(en[0]))
            broken = []
            if traj.n_steps != steps:
                problems.append(f"{where}: {traj.n_steps} steps, expected "
                                f"{steps}")
            if not all(r.satisfies(INNER_TOL) for r in traj.kkt_reports):
                broken.append("kkt")
            if float(np.max(np.diff(en))) > slack:
                broken.append("descent")
            if np.any(traj.symmetry_residuals != 0.0):
                broken.append("symmetry")
            if broken:
                case["broken"] = broken
                failures.append(case)
            chunks.append(traj.iterates[-1].values.tobytes())
        return {"attempted": len(cases), "failed": len(failures),
                "correct": not problems, "problems": problems,
                "failures": failures, "fingerprint": _sha(*chunks)}


WORKLOADS = {w.name: w for w in (ValidateFull, ConeRest, FineLadder)}
