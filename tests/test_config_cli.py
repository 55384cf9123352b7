import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bendflow
from bendflow import (
    ConfigError,
    DomainError,
    FlowConfig,
    GridFunction,
    UniformGrid,
    c0,
    cone_obstacle,
    g,
    h_of_A,
    read_profile_csv,
    run_flow,
    svgplot,
    table_obstacle,
    u_c_profile,
    write_profile_csv,
)
from bendflow.cli import main
from bendflow.config import load_config, parse_config
from bendflow.svgplot import emit_plot
from bendflow.validate import run_validation

MINIMAL = {
    "grid_n": 32,
    "tau": 1e-3,
    "t_end": 0.01,
    "obstacle": {"type": "cone", "height": 0.02},
    "initial": {"type": "uc", "c": 0.5},
}


def write_cfg(tmp_path, data, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


def test_minimal_config_valid(tmp_path):
    cfg = load_config(write_cfg(tmp_path, MINIMAL))
    assert cfg.grid_n == 32
    assert cfg.flow.tau == 1e-3
    obstacle = cfg.build_obstacle()
    assert obstacle.kind == "cone"
    u0 = cfg.build_initial()
    assert u0.values[0] == 0.0


def test_unknown_keys_rejected(tmp_path):
    bad = dict(MINIMAL)
    bad["grid_m"] = 10
    with pytest.raises(ConfigError, match="grid_m"):
        load_config(write_cfg(tmp_path, bad))
    bad2 = dict(MINIMAL)
    bad2["obstacle"] = {"type": "cone", "height": 0.02, "path": "x"}
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, bad2))


def test_removed_settings_are_rejected():
    for key, value in (("armijo_c", 1e-4), ("backtrack", 0.5),
                       ("coincidence_tol", 1e-6),
                       ("checks", {"touch_window": True})):
        with pytest.raises(ConfigError, match=key):
            parse_config(dict(MINIMAL, **{key: value}))


def test_invalid_obstacle_rejected_without_flag():
    data = dict(MINIMAL)
    data["obstacle"] = {"type": "constant", "level": 0.0}
    cfg = parse_config(data)
    with pytest.raises(ConfigError, match="assumption"):
        cfg.build_obstacle()
    data2 = dict(data)
    data2["allow_invalid_obstacle"] = True
    data2["obstacle"] = {"type": "constant", "level": -1.0}
    parse_config(data2).build_obstacle()


def test_table_shape_mismatch(tmp_path):
    gf = GridFunction(UniformGrid(16), np.zeros(17))
    path = tmp_path / "table.csv"
    write_profile_csv(path, gf)
    data = dict(MINIMAL)
    data["initial"] = {"type": "table", "path": str(path)}
    with pytest.raises(ConfigError, match="16"):
        parse_config(data).build_initial()


def test_semantic_checks():
    with pytest.raises(ConfigError, match="grid_n"):
        parse_config({**MINIMAL, "grid_n": 8})
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, "obstacle": {"type": "wedge", "height": 1}})
    with pytest.raises(ConfigError, match="snapshots"):
        parse_config({**MINIMAL, "outputs": {"snapshots": [5.0]}})
    bad_json = {**MINIMAL, "tau": -1}
    with pytest.raises(ConfigError):
        parse_config(bad_json)


@pytest.mark.parametrize("data", [[], 5, "grid_n", None])
def test_top_level_config_that_is_not_an_object_exits_2(tmp_path, capsys,
                                                        data):
    with pytest.raises(ConfigError,
                       match="^top-level config must be a JSON object$"):
        parse_config(data)
    assert main(["simulate", "--config", str(write_cfg(tmp_path, data)),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: top-level config must be a JSON object\n")


@pytest.mark.parametrize("section", ["obstacle", "initial", "outputs"])
@pytest.mark.parametrize("value", [[], 5, "cone"])
def test_section_that_is_not_an_object_exits_2(tmp_path, capsys, section, value):
    path = write_cfg(tmp_path, {**MINIMAL, section: value})
    assert main(["simulate", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"config error: {section} must be a JSON object, got {value!r}\n")


@pytest.mark.parametrize("key, override", [
    ("height", {"obstacle": {"type": "cone", "height": "0.02"}}),
    ("height", {"obstacle": {"type": "cone", "height": True}}),
    ("level", {"obstacle": {"type": "constant", "level": None}}),
    ("path", {"obstacle": {"type": "table", "path": 5}}),
    ("scale", {"initial": {"type": "scaled_bump", "scale": "x"}}),
    ("c", {"initial": {"type": "uc", "c": "0.5"}}),
    ("inner_max_iter", {"inner_max_iter": "80"}),
    ("inner_max_iter", {"inner_max_iter": -1}),
    ("inner_max_iter", {"inner_max_iter": 2.5}),
    ("tau", {"tau": True}),
    ("inner_tol", {"inner_tol": True}),
    ("stop_when_stall_rate", {"stop_when_stall_rate": True}),
    ("snapshots", {"outputs": {"snapshots": [True]}}),
    ("allow_invalid_obstacle", {"allow_invalid_obstacle": "false"}),
    ("inner_tol", {"inner_tol": 0}),  # FlowConfig's guard, through simulate
    ("inner_tol", {"inner_tol": -1e-8}),
], ids=lambda v: None if isinstance(v, dict) else v)
def test_value_of_the_wrong_kind_exits_2(tmp_path, capsys, key, override):
    """A config value of the wrong kind is a configuration error naming
    its key, not a traceback, a coerced value or an ignored cap."""
    path = write_cfg(tmp_path, {**MINIMAL, **override})
    assert main(["simulate", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert key in err


def test_json_parse_error_reports_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"grid_n": 32,\n  "oops"\n}')
    with pytest.raises(ConfigError, match="line"):
        load_config(p)


def test_cli_specialfn_eval(capsys):
    assert main(["specialfn", "eval", "--fn", "c0"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 2.3962804694711844) < 1e-10
    assert len(out.replace(".", "").replace("-", "").lstrip("0")) >= 15
    assert main(["specialfn", "eval", "--fn", "g", "--args", "1.0"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 0.7443030797604929) < 1e-10
    assert main(["specialfn", "eval", "--fn", "uc", "--args", "0.5", "0.5"]) == 0
    capsys.readouterr()
    # wrong arity is a usage error
    assert main(["specialfn", "eval", "--fn", "g"]) == 2
    capsys.readouterr()
    # the tail branches of G and Ginv (|s| >= 1); H and Hinv on the flat end
    # of H, at slopes above 30; H(2^19), the largest height h_of_A returns
    printed = {}
    for fn, arg in [("g", "1e6"), ("ginv", "1.19"), ("h", "1e3"),
                    ("hinv", "0.83"), ("hinv", "0.834624559341344")]:
        assert main(["specialfn", "eval", "--fn", fn, "--args", arg]) == 0
        printed[fn, arg] = float(capsys.readouterr().out)
    assert 0.0 < c0() / 2.0 - printed["g", "1e6"] < 1e-8
    assert g(printed["ginv", "1.19"]) == pytest.approx(1.19, rel=1e-12)
    assert h_of_A(30.0) < printed["h", "1e3"] < 0.834626841674073
    assert h_of_A(printed["hinv", "0.83"]) == pytest.approx(0.83, rel=1e-12)
    assert printed["hinv", "0.834624559341344"] == pytest.approx(2.0**19,
                                                                 rel=1e-9)


def test_cli_critical(tmp_path, capsys):
    code = main(["critical", "--height", "0.05", "--n", "64",
                 "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    with open(tmp_path / "critical_profile.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "u", "uprime", "psi"]
    assert len(rows) == 66
    mid = rows[1 + 32]
    assert abs(float(mid[1]) - 0.05) <= 1e-9
    payload = json.loads((tmp_path / "critical_residuals.json").read_text())
    assert payload["residuals"]["ode_residual"] <= 1e-3  # coarse demo grid
    assert main(["critical", "--height", "0.05", "--n", "33",
                 "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    # a second run writes the same bytes, and the residuals file keeps its keys
    runs = [tmp_path / "first", tmp_path / "second"]
    for out in runs:
        assert main(["critical", "--height", "0.02", "--n", "64",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("critical_profile.csv", "critical_residuals.json"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    payload = json.loads((runs[0] / "critical_residuals.json").read_text())
    assert sorted(payload) == ["A", "energy", "height", "n", "residuals"]
    assert sorted(payload["residuals"]) == ["concavity_min", "ode_residual",
                                            "vi_residual"]


def test_cli_critical_exits_1_on_a_point_its_report_rejects(tmp_path, capsys):
    """Over a cone too tall for the grid the polish ends far above the tip,
    not concave and failing the VI check: the command still writes its
    files, prints a check-failure line and exits 1. Small heights pass."""
    out = tmp_path / "tall"
    assert main(["critical", "--height", "0.8", "--n", "64",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed: ")
    for name in ("vi_residual", "concavity_min", "off the cone tip"):
        assert name in err
    assert (out / "critical_profile.csv").exists()
    payload = json.loads((out / "critical_residuals.json").read_text())
    assert payload["residuals"]["concavity_min"] < 0.0
    assert main(["critical", "--height", "0.02", "--n", "64",
                 "--out", str(tmp_path / "small")]) == 0
    assert "check failed" not in capsys.readouterr().err


def test_cli_critical_of_a_tiny_cone(tmp_path, capsys):
    """h_inv brackets every positive height, so `critical` finds the point
    of a cone of height 1e-100 or 1e-200: A = 3 height to rounding, a
    finite ode_residual, exit 0 and no numpy warning (pytest makes each
    one an error). The PCHIP cubic of the height table, whose cells are
    1e-203 wide at 1e-200, no longer overflows into a NaN ode_residual."""
    for height in (1e-100, 1e-200):
        out = tmp_path / f"h{height:g}"
        assert main(["critical", "--height", f"{height:g}", "--n", "16",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith(f"A = {3.0 * height:g}, ")
        payload = json.loads((out / "critical_residuals.json").read_text())
        assert payload["A"] == pytest.approx(3.0 * height, rel=1e-12)
        assert 0.0 <= payload["residuals"]["ode_residual"] <= 1e-6 * height


def test_cli_rearrange(tmp_path, capsys):
    grid = UniformGrid(32)
    gf = GridFunction(grid, grid.nodes * (1 - grid.nodes))
    src = tmp_path / "in.csv"
    write_profile_csv(src, gf)
    out = tmp_path / "pair.csv"
    assert main(["rearrange", "--input", str(src), "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "f", "f_star", "f_sym", "v"]
    assert len(rows) == 34


def test_cli_simulate_outputs_and_determinism(tmp_path, capsys):
    data = dict(MINIMAL)
    data["outputs"] = {"trajectory_csv": "traj.csv", "snapshots": [0.005],
                       "plot_svg": "plot.svg"}
    cfg_path = write_cfg(tmp_path, data)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    capsys.readouterr()
    for name in ("traj.csv", "summary.json", "plot.svg", "final.csv",
                 "snapshot_t0.005.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    with open(out1 / "traj.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "time", "energy", "step_l2",
                       "coincidence_count", "symmetry_residual", "inner_iters",
                       "kkt_stationarity", "kkt_multiplier_min"]
    energies = [float(r[2]) for r in rows[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    summary = json.loads((out1 / "summary.json").read_text())
    for key in ("final_energy", "dissipation_lhs", "dissipation_rhs",
                "touched_at_step", "l0_window", "warnings"):
        assert key in summary
    assert "rng" not in summary  # no simulate path draws random numbers
    with open(out1 / "snapshot_t0.005.csv") as fh:
        snap = list(csv.reader(fh))
    assert snap[0] == ["x", "u", "psi", "gap"]


def test_cli_simulate_resume(tmp_path, capsys):
    data = dict(MINIMAL)
    cfg_path = write_cfg(tmp_path, data)
    out1 = tmp_path / "first"
    assert main(["simulate", "--config", str(cfg_path), "--out",
                 str(out1)]) == 0
    out2 = tmp_path / "second"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2),
                 "--resume", str(out1)]) == 0
    capsys.readouterr()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s2["steps"] == 2 * s1["steps"]
    assert abs(s2["t_final"] - 2 * s1["t_final"]) < 1e-12


def test_cli_resumed_run_names_its_files_by_absolute_time(tmp_path, capsys):
    """A resumed run writes snapshots and trajectory rows on the time base
    of summary.json: the snapshot 0.005 into the second run of 0.01 is
    snapshot_t0.015.csv, and its first trajectory row is step 11."""
    data = dict(MINIMAL, outputs={"snapshots": [0.005],
                                  "trajectory_csv": "trajectory.csv"})
    cfg_path = write_cfg(tmp_path, data)
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert main(["simulate", "--config", str(cfg_path), "--out",
                 str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2),
                 "--resume", str(out1)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out2.glob("snapshot_t*.csv")) == [
        "snapshot_t0.015.csv"]
    with open(out1 / "trajectory.csv") as fh:
        first = list(csv.DictReader(fh))
    with open(out2 / "trajectory.csv") as fh:
        second = list(csv.DictReader(fh))
    assert [r["step"] for r in first] == [str(k) for k in range(1, 11)]
    assert [r["step"] for r in second] == [str(k) for k in range(11, 21)]
    assert float(second[0]["time"]) == pytest.approx(0.011, rel=1e-12)
    summary = json.loads((out2 / "summary.json").read_text())
    assert float(second[-1]["time"]) == pytest.approx(summary["t_final"],
                                                      rel=1e-12)


def test_cli_snapshot_times_that_share_a_file_name_are_rejected(tmp_path,
                                                               capsys):
    """Two snapshot times whose file names would be the same exit 2 with a
    message naming both times and the file, before the flow runs and
    before --out is made: no snapshot overwrites another. A resumed run names its files by
    t_offset + t, so times that a fresh run keeps apart can meet there."""
    data = dict(MINIMAL, t_end=0.02,
                outputs={"snapshots": [0.01000001, 0.01000004]})
    out = tmp_path / "clash"
    assert main(["simulate", "--config", str(write_cfg(tmp_path, data)),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: outputs.snapshots: times 0.01000001 and 0.01000004 "
        "would both be written to snapshot_t0.01.csv\n")
    assert not out.exists()
    data = dict(MINIMAL, outputs={"snapshots": [1e-9, 2e-9, 1e-9]})
    cfg_path = str(write_cfg(tmp_path, data, "resume.json"))
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["simulate", "--config", cfg_path, "--out", str(first)]) == 0
    assert sorted(p.name for p in first.glob("snapshot_t*.csv")) == [
        "snapshot_t1e-09.csv", "snapshot_t2e-09.csv"]
    capsys.readouterr()
    assert main(["simulate", "--config", cfg_path, "--out", str(second),
                 "--resume", str(first)]) == 2
    assert capsys.readouterr().err == (
        "config error: outputs.snapshots: times 1e-09 and 2e-09 would both "
        "be written to snapshot_t0.01.csv\n")
    assert not second.exists()


def test_cli_resume_needs_no_initial_table(tmp_path, capsys):
    """A resumed run starts from its checkpoint alone: with the config's
    initial table deleted it exits 0 and writes what it writes with the
    table present."""
    table = tmp_path / "init.csv"
    write_profile_csv(table, u_c_profile(0.5, UniformGrid(MINIMAL["grid_n"])))
    data = dict(MINIMAL, initial={"type": "table", "path": str(table)},
                outputs={"snapshots": [0.005],
                         "trajectory_csv": "trajectory.csv"})
    cfg_path = str(write_cfg(tmp_path, data))
    first, kept, gone = (tmp_path / d for d in ("first", "kept", "gone"))
    assert main(["simulate", "--config", cfg_path, "--out", str(first)]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(kept),
                 "--resume", str(first)]) == 0
    table.unlink()
    assert main(["simulate", "--config", cfg_path, "--out", str(gone),
                 "--resume", str(first)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in kept.iterdir())
    assert names == sorted(p.name for p in gone.iterdir())
    for name in names:
        assert (kept / name).read_bytes() == (gone / name).read_bytes(), name


@pytest.mark.parametrize("section", ["initial_table", "scaled_bump",
                                     "obstacle_table"])
def test_cli_simulate_runs_each_table_and_bump(tmp_path, capsys, section):
    """A run from a table or a bump, or over a table obstacle, goes to the
    end and prints the final energy run_flow gives on the same inputs."""
    grid = UniformGrid(MINIMAL["grid_n"])
    table = tmp_path / "table.csv"
    obstacle = cone_obstacle(0.02, grid)
    u0 = u_c_profile(0.5, grid)
    if section == "initial_table":
        write_profile_csv(table, u0)
        u0 = read_profile_csv(table)
        data = dict(MINIMAL, initial={"type": "table", "path": str(table)})
    elif section == "scaled_bump":
        xl = grid.nodes[: grid.n // 2 + 1]
        u0 = GridFunction.from_symmetric_half(grid, 0.1 * 4.0 * xl * (1.0 - xl))
        data = dict(MINIMAL, initial={"type": "scaled_bump", "scale": 0.1})
    else:
        # the cone's ends are negative, as an admissible obstacle's must be
        write_profile_csv(table, obstacle.samples)
        obstacle = table_obstacle(read_profile_csv(table))
        data = dict(MINIMAL, obstacle={"type": "table", "path": str(table)})
    assert main(["simulate", "--config", str(write_cfg(tmp_path, data)),
                 "--out", str(tmp_path / "out")]) == 0
    cfg = FlowConfig(tau=MINIMAL["tau"], t_end=MINIMAL["t_end"])
    want = run_flow(u0, obstacle, cfg).energies[-1]
    assert capsys.readouterr().out.startswith(
        f"final energy {want:.15g} after 10 steps")


def test_cli_simulate_summary_json_name(tmp_path, capsys):
    data = dict(MINIMAL, t_end=0.002, outputs={"summary_json": "other.json"})
    cfg_path = write_cfg(tmp_path, data)
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert main(["simulate", "--config", str(cfg_path), "--out",
                 str(out1)]) == 0
    assert (out1 / "other.json").exists()
    assert not (out1 / "summary.json").exists()
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2),
                 "--resume", str(out1)]) == 0
    capsys.readouterr()
    assert json.loads((out1 / "other.json").read_text())["steps"] == 2
    assert json.loads((out2 / "other.json").read_text())["steps"] == 4
    assert not (out2 / "summary.json").exists()
    for bad in ("", None):
        with pytest.raises(ConfigError, match="summary_json"):
            parse_config(dict(MINIMAL, outputs={"summary_json": bad}))


def test_cli_exit_codes(tmp_path, capsys):
    # config error -> 2
    bad = write_cfg(tmp_path, {"grid_n": 32}, "bad.json")
    assert main(["simulate", "--config", str(bad), "--out",
                 str(tmp_path / "x")]) == 2
    # initial datum below obstacle -> 2
    below = dict(MINIMAL)
    below["obstacle"] = {"type": "cone", "height": 0.2}
    p = write_cfg(tmp_path, below, "below.json")
    assert main(["simulate", "--config", str(p), "--out",
                 str(tmp_path / "y")]) == 2
    # nonconvergence -> 3
    stuck = dict(MINIMAL)
    stuck["inner_max_iter"] = 0
    p = write_cfg(tmp_path, stuck, "stuck.json")
    assert main(["simulate", "--config", str(p), "--out",
                 str(tmp_path / "z")]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("sweep, message", [
    ({"base": MINIMAL}, "sweep config needs a 'cases' object of run configs"),
    ({"base": MINIMAL, "cases": {}},
     "'cases' must be a nonempty object name -> overrides"),
    (None, "checkpoint grid does not match configuration"),
], ids=["no_cases", "empty_cases", "checkpoint_grid"])
def test_cli_input_guards_are_config_errors(tmp_path, capsys, sweep, message):
    """A sweep with no cases or with empty cases, and a resume from a
    checkpoint on another grid than grid_n: each a ConfigError (stderr's
    "config error" prefix), exit 2, and no run written."""
    out = tmp_path / "out"
    if sweep is None:
        checkpoint = tmp_path / "checkpoint"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, MINIMAL)),
                     "--out", str(checkpoint)]) == 0
        capsys.readouterr()
        argv = ["simulate", "--config",
                str(write_cfg(tmp_path, dict(MINIMAL, grid_n=64))),
                "--out", str(out), "--resume", str(checkpoint)]
    else:
        argv = ["sweep", "--config", str(write_cfg(tmp_path, sweep)),
                "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (out / "summary.json").exists()


def test_cli_simulate_from_a_datum_whose_gradient_overflows_exits_3(
        tmp_path, capsys):
    """A finite admissible table 1e150 sin(pi x), whose gradient overflows,
    or 1e200 sin(pi x), whose energy does: a nonconvergence that names the
    step's start as not finite, exit 3, with no traceback and no numpy
    warning (the suite's warnings are errors)."""
    grid = UniformGrid(64)
    for amplitude in (1e150, 1e200):
        v = amplitude * np.sin(np.pi * grid.nodes)
        v[0] = v[-1] = 0.0
        table = tmp_path / "huge.csv"
        write_profile_csv(table, GridFunction(grid, v))
        data = dict(MINIMAL, grid_n=64, t_end=1e-3,
                    initial={"type": "table", "path": str(table)})
        assert main(["simulate", "--config", str(write_cfg(tmp_path, data)),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err == ("nonconvergence: the step's start has an energy or "
                       "gradient that is not finite\n"), amplitude


def test_cli_simulate_writes_its_files_when_the_touching_window_fails(
        tmp_path, capsys, monkeypatch):
    """A finished run whose touching window needs the cone's critical point,
    and whose critical point does not converge (as at N = 12800), writes
    every file, l0_window null, a warning naming the failure, and exits 0,
    so it can be resumed."""
    from bendflow import critical
    from bendflow.errors import StepConvergenceError

    def failing(height, grid):
        raise StepConvergenceError("inner solver stopped at residual 2.501e+06 "
                                   "(tolerance 3.817e+00)")
    monkeypatch.setattr(critical, "critical_profile", failing)
    data = dict(MINIMAL, t_end=2e-3, outputs={"trajectory_csv": "traj.csv"})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(write_cfg(tmp_path, data)),
                 "--out", str(out)]) == 0
    warning = ("l0_window not computed: the critical point of the cone of "
               "height 0.02 at N = 32 failed: inner solver stopped at "
               "residual 2.501e+06 (tolerance 3.817e+00)")
    assert f"warning: {warning}" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["l0_window"] is None and summary["steps"] == 2
    assert warning in summary["warnings"]
    assert (out / "final.csv").exists() and (out / "traj.csv").exists()
    assert main(["simulate", "--config", str(write_cfg(tmp_path, data)),
                 "--out", str(tmp_path / "resumed"), "--resume", str(out)]) == 0
    capsys.readouterr()


def test_cli_simulate_over_a_cone_too_low_for_its_critical_point(
        tmp_path, capsys):
    """A cone lower than the critical point serves (1e-210) leaves the
    touching window uncomputed, as a critical point that fails does: exit
    0, l0_window null and a warning naming the height."""
    data = dict(MINIMAL, t_end=2e-3, obstacle={"type": "cone", "height": 1e-210})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(write_cfg(tmp_path, data)),
                 "--out", str(out)]) == 0
    warning = ("l0_window not computed: the critical point of the cone of "
               "height 1e-210 at N = 32 failed: height 1e-210 is below "
               "3.6e-209, the lowest served")
    assert f"warning: {warning}" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["l0_window"] is None and warning in summary["warnings"]


def test_cli_sweep(tmp_path, capsys):
    sweep = {
        "base": MINIMAL,
        "cases": {
            "short": {"t_end": 0.002},
            "taller": {"obstacle": {"type": "cone", "height": 0.03}},
        },
    }
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps(sweep))
    assert main(["sweep", "--config", str(p), "--out",
                 str(tmp_path / "runs"), "--jobs", "2"]) == 0
    capsys.readouterr()
    for name in ("short", "taller"):
        assert (tmp_path / "runs" / name / "summary.json").exists()


def test_cli_snapshot_at_the_last_step_within_rounding(tmp_path, capsys):
    """Three steps of 0.3 end at 0.8999999999999999, not at t_end = 0.9:
    the snapshot at 0.9 is the last iterate, and the run writes every
    output and exits 0."""
    data = dict(MINIMAL, tau=0.3, t_end=0.9, outputs={"snapshots": [0.9]})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(write_cfg(tmp_path, data)),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "snapshot_t0.9.csv") as fh:
        snap = np.array([float(r[1]) for r in list(csv.reader(fh))[1:]])
    with open(out / "final.csv") as fh:
        final = np.array([float(r[1]) for r in list(csv.reader(fh))[1:]])
    assert np.allclose(snap, final, rtol=1e-12, atol=0.0)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps"] == 3
    assert not any("snapshot" in w for w in summary["warnings"])


def test_cli_snapshot_past_a_stall_stop_is_named_not_written(tmp_path, capsys):
    """A run that stalls at t = 0.013 writes no snapshot past that time,
    names each one in the summary's warnings, still writes summary.json
    and final.csv, and exits 0."""
    data = dict(MINIMAL, grid_n=64, tau=1e-3, t_end=5.0,
                stop_when_stall_rate=1e-6, outputs={"snapshots": [0.05, 4.0]})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(write_cfg(tmp_path, data)),
                 "--out", str(out)]) == 0
    assert "snapshot t=4 not written" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["t_final"] < 0.05
    skipped = [w for w in summary["warnings"] if "not written" in w]
    assert len(skipped) == 2 and "t=0.05" in skipped[0]
    assert (out / "final.csv").exists()
    assert not list(out.glob("snapshot_t*.csv"))
    # resumed, the warnings count time from the start of the first run
    again = tmp_path / "again"
    assert main(["simulate", "--config", str(write_cfg(tmp_path, data)),
                 "--out", str(again), "--resume", str(out)]) == 0
    capsys.readouterr()
    resumed = json.loads((again / "summary.json").read_text())
    t_final = resumed["t_final"]
    assert t_final > summary["t_final"]
    assert (f"snapshot t={summary['t_final'] + 0.05:g} not written: the run "
            f"stopped at t = {t_final:.15g}") in resumed["warnings"]


def test_cli_stall_stopped_trajectory_is_a_prefix_of_the_full_run(
        tmp_path, capsys):
    """A run that comes to rest, recorded to t_end and cut by the stall
    stop: the stalled trajectory.csv is a byte prefix of the full one."""
    data = dict(MINIMAL, grid_n=64, t_end=1.0,
                outputs={"trajectory_csv": "trajectory.csv"})
    full, stall = tmp_path / "full", tmp_path / "stall"
    for out, extra in ((full, {}), (stall, {"stop_when_stall_rate": 1e-30})):
        assert main(["simulate", "--config",
                     str(write_cfg(tmp_path, {**data, **extra})),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    whole = (full / "trajectory.csv").read_bytes()
    cut = (stall / "trajectory.csv").read_bytes()
    assert len(cut) < len(whole) and whole.startswith(cut)


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_sweep_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    """--jobs below 1 is a usage error, exit 2 naming --jobs, before any
    case runs."""
    p = write_cfg(tmp_path, {"base": MINIMAL, "cases": {"a": {}}}, "sweep.json")
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "runs"),
                 "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_cli_sweep_bad_config_file_exits_2(tmp_path, capsys):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"base": {}, "cases": ')
    for path in (malformed, tmp_path / "missing.json"):
        assert main(["sweep", "--config", str(path), "--out",
                     str(tmp_path / "runs")]) == 2
        assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("overrides", [5, [], "c0.5", None])
def test_cli_sweep_case_that_is_not_an_object_exits_2(tmp_path, capsys, overrides):
    """A case's overrides that are not a JSON object exit 2 naming the case,
    before any case runs, and write nothing; so does a base that is not
    an object."""
    for sweep, named in (({"base": MINIMAL, "cases": {"ok": {}, "a": overrides}},
                          "case 'a'"),
                         ({"base": overrides, "cases": {"a": {"tau": 0.001}}},
                          "'base'")):
        p = write_cfg(tmp_path, sweep, "sweep.json")
        assert main(["sweep", "--config", str(p), "--out",
                     str(tmp_path / "runs")]) == 2
        assert named in capsys.readouterr().err
        assert [q.name for q in tmp_path.iterdir()] == ["sweep.json"]


@pytest.mark.parametrize("name", ["", ".", "..", "../escape", "a/b", "ABS"])
def test_cli_sweep_case_name_outside_out_exits_2(tmp_path, capsys, name):
    """A case name is its directory under --out: one that is not one path
    component, or is '.' or '..', exits 2 naming the case, before any case
    runs, and writes nothing."""
    if name == "ABS":
        name = str(tmp_path / "abs")
    sweep = {"base": MINIMAL, "cases": {"ok": {}, name: {}}}
    p = write_cfg(tmp_path, sweep, "sweep.json")
    assert main(["sweep", "--config", str(p), "--out",
                 str(tmp_path / "runs" / "root")]) == 2
    assert repr(name) in capsys.readouterr().err
    assert [q.name for q in tmp_path.iterdir()] == ["sweep.json"]


def test_cli_touch_window_at_the_flow_limit(tmp_path, capsys):
    """E0 = 0.4324598554964422 lies between flow's G(sqrt(2/3))^2
    (0.4324598554964421) and the validation reference (...423): the run
    asks flow's own limit, computes no window and writes every output."""
    data = dict(MINIMAL, grid_n=20, initial={
        "type": "scaled_bump", "scale": 0.08608764396441736})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(write_cfg(tmp_path, data)),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["l0_window"] is None and summary["steps"] == 10
    assert (out / "final.csv").exists()


def test_t_end_must_be_a_whole_number_of_steps(tmp_path, capsys):
    with pytest.raises(DomainError, match="0.0115.*0.001"):
        FlowConfig(tau=1e-3, t_end=0.0115)
    for t_end in (float("inf"), float("nan")):
        with pytest.raises(DomainError):
            FlowConfig(tau=1e-3, t_end=t_end)
    p = write_cfg(tmp_path, dict(MINIMAL, t_end=0.0115))
    assert main(["simulate", "--config", str(p), "--out",
                 str(tmp_path / "out")]) == 2
    assert "whole number of steps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # 12 / 1e-3 = 11999.999999999998 is a whole number within rounding
    assert FlowConfig(tau=1e-3, t_end=12.0).n_steps == 12000
    for tau in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        assert FlowConfig(tau=tau, t_end=20 * tau).n_steps == 20


def _without_runtimes(report: dict) -> dict:
    return {**report, "checks": [{k: v for k, v in c.items() if k != "runtime_s"}
                                 for c in report["checks"]]}


def test_cli_validate(tmp_path, capsys):
    """`validate` has one profile: its report is run_validation's, and the
    old `--quick` flag is a usage error."""
    assert main(["validate", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "validation_report.json").read_text())
    assert report["overall"] == "pass"
    assert len(report["checks"]) == 12
    assert (_without_runtimes(report)
            == _without_runtimes(run_validation().to_json()))
    assert main(["validate", "--quick", "--out", str(tmp_path)]) == 2
    assert "--quick" in capsys.readouterr().err


def _env_with_src() -> dict:
    """This process's environment, with the package's source directory
    first on PYTHONPATH, for a fresh interpreter."""
    src = Path(bendflow.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}


def test_python_m_bendflow_cli_exits_with_mains_code():
    """`python -m bendflow.cli` exits with main's code: 0 for --version,
    and 2 for a usage error, which it names on stderr."""
    for argv, code, stream, text in (
            (["--version"], 0, "stdout", f"{bendflow.__version__}\n"),
            (["specialfn", "eval", "--fn", "g"], 2, "stderr",
             "config error: --fn g takes exactly 1 argument(s)\n")):
        done = subprocess.run([sys.executable, "-m", "bendflow.cli", *argv],
                              env=_env_with_src(), capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == code, done.stderr
        assert getattr(done, stream) == text


_IMPORT_PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from bendflow.cli import main
loaded = {"import": scipy_modules()}
assert main(["validate", "--out", sys.argv[1] + "/validate"]) == 0
loaded["validate"] = scipy_modules()
assert main(["simulate", "--config", sys.argv[2], "--out",
             sys.argv[1] + "/simulate"]) == 0
loaded["simulate"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_cli_paths_load_no_scipy_package(tmp_path):
    """`import bendflow.cli`, `validate` and the 64-cell cone `simulate`
    load no scipy package module: not scipy, scipy._lib, scipy.special or
    scipy.linalg, whose imports take about 0.3 s that every run would
    pay. The one scipy module in the process is the compiled LAPACK
    wrapper scipy.linalg._flapack, which flow loads by its file for
    dpbsv. Run in a fresh interpreter, since the test suite itself
    imports scipy."""
    cfg = write_cfg(tmp_path, {**MINIMAL, "grid_n": 64, "outputs": {
        "snapshots": [0.005], "trajectory_csv": "trajectory.csv"}})
    env = _env_with_src()
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path),
                           str(cfg)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    only = ["scipy.linalg._flapack"]
    assert loaded == {"import": only, "validate": only, "simulate": only}


# the Gauss-Legendre rules are literals, so numpy.polynomial never loads
_DEFERRED = ("bendflow.validate", "numpy.random", "concurrent.futures",
             "numpy.polynomial")
_DEFERRED_PROBE = """
import json, sys
deferred = sys.argv[3].split(",")
from bendflow.cli import main
loaded = {"import": [m for m in deferred if m in sys.modules]}
assert main(["simulate", "--config", sys.argv[2], "--out",
             sys.argv[1] + "/simulate"]) == 0
loaded["simulate"] = [m for m in deferred if m in sys.modules]
print(json.dumps(loaded))
"""


def test_cli_defers_the_validate_and_sweep_imports(tmp_path):
    """`import bendflow.cli` and a `simulate` load neither bendflow.validate
    (nor the numpy.random it imports) nor concurrent.futures (nor its
    logging): `validate` and `sweep` import them when they run, so no other
    command pays for them. Run in a fresh interpreter, since the test suite
    itself imports all three."""
    cfg = write_cfg(tmp_path, {**MINIMAL, "grid_n": 64})
    env = _env_with_src()
    done = subprocess.run([sys.executable, "-c", _DEFERRED_PROBE, str(tmp_path),
                           str(cfg), ",".join(_DEFERRED)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"import": [],
                                                        "simulate": []}


def test_emit_plot_deterministic(tmp_path):
    grid = UniformGrid(16)
    gf = GridFunction(grid, grid.nodes * (1 - grid.nodes))
    z = GridFunction.zeros(grid)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_plot([("u", gf), ("zero", z)], p1)
    emit_plot([("u", gf), ("zero", z)], p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    text = b1.decode()
    assert text.count("<polyline") == 2
    assert "u(x)" in text and "</svg>" in text
    emit_plot([("flat", z)], p1)  # degenerate range still renders
    assert b"<polyline" in p1.read_bytes()


def _polyline_points_reference(profiles):
    """The per-point writer emit_plot's polylines had: emit_plot's range
    rule, then each point formatted on its own from scalar sx and sy."""
    ymin = min(float(np.min(gf.values)) for _, gf in profiles)
    ymax = max(float(np.max(gf.values)) for _, gf in profiles)
    if ymax - ymin < 1e-15:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin -= pad
    ymax += pad
    pw = svgplot._W - svgplot._ML - svgplot._MR
    ph = svgplot._H - svgplot._MT - svgplot._MB

    def sx(x):
        return svgplot._ML + pw * x

    def sy(y):
        return svgplot._MT + ph * (ymax - y) / (ymax - ymin)

    return [" ".join(f"{sx(x):.2f},{sy(v):.2f}" for x, v in zip(gf.x, gf.values))
            for _, gf in profiles]


def _random_profiles(rng):
    """One to three profiles on one grid: an offset plus noise of a scale
    from 1e-300 to 1e300, with exact 0.0 and -0.0 at random nodes."""
    grid = UniformGrid(int(rng.integers(4, 300)))
    profiles = []
    for k in range(int(rng.integers(1, 4))):
        offset = rng.choice([0.0, -0.0, 1.0, rng.standard_normal() * 1e3])
        v = offset + rng.standard_normal(grid.n + 1) * 10.0 ** rng.uniform(-300, 300)
        v[rng.random(grid.n + 1) < 0.2] = 0.0
        v[rng.random(grid.n + 1) < 0.2] = -0.0
        profiles.append((f"p{k}", GridFunction(grid, v)))
    return profiles


def _near_tie_profile(rng):
    """A profile whose interior values map to within a few ulps of y
    coordinates ending in 5 at the third decimal, where `.2f` rounds by the
    last bit: its ends fix the range, and each interior value inverts sy."""
    grid = UniformGrid(int(rng.integers(4, 300)))
    lo = rng.standard_normal() * 10.0 ** rng.uniform(-5, 5)
    hi = lo + 10.0 ** rng.uniform(-10, 5)
    ymin, ymax = lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo)
    ph = svgplot._H - svgplot._MT - svgplot._MB
    ties = rng.integers(2500, 45000, grid.n + 1) / 100 + 0.005
    v = np.clip(ymax - (ties - svgplot._MT) * (ymax - ymin) / ph, lo, hi)
    v[0], v[-1] = lo, hi
    return [("tie", GridFunction(grid, v))]


def test_emit_plot_points_are_those_of_the_per_point_writer(tmp_path):
    """emit_plot maps whole arrays through sx and sy; every polyline's
    points attribute keeps the bytes of the per-point reference, on random
    profiles, on profiles whose points sit at `.2f` rounding ties, and on
    flat ones (0.0, -0.0, a constant), which take the fallback range."""
    rng = np.random.default_rng(7)
    grid = UniformGrid(32)
    flat = [[("zero", GridFunction.zeros(grid))],
            [("negzero", GridFunction(grid, np.full(33, -0.0)))],
            [("c", GridFunction(grid, np.full(33, 0.3))),
             ("c2", GridFunction(grid, np.full(33, 0.3)))]]
    path = tmp_path / "plot.svg"
    drawn = [_random_profiles(rng) for _ in range(40)]
    drawn += [_near_tie_profile(rng) for _ in range(40)]
    for profiles in flat + drawn:
        emit_plot(profiles, path)
        got = re.findall(r'<polyline points="([^"]*)"', path.read_text())
        assert got == _polyline_points_reference(profiles)


def test_emit_plot_of_no_profiles_is_a_domain_error(tmp_path):
    with pytest.raises(DomainError,
                       match="^emit_plot needs at least one profile$"):
        emit_plot([], tmp_path / "plot.svg")
    assert not (tmp_path / "plot.svg").exists()


def test_output_names_with_a_directory_part_are_rejected(tmp_path, capsys):
    """A directory part in an output name is a config error, raised before
    the flow runs, not a failed write after it."""
    for key in ("trajectory_csv", "summary_json", "plot_svg"):
        data = dict(MINIMAL, t_end=0.002, outputs={key: "sub/out.file"})
        with pytest.raises(ConfigError, match=key):
            parse_config(data)
        out = tmp_path / key
        assert main(["simulate", "--config", str(write_cfg(tmp_path, data)),
                     "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()
    # an empty trajectory or plot name still means "do not write it"
    parse_config(dict(MINIMAL, outputs={"trajectory_csv": "", "plot_svg": None}))


def test_cli_sweep_isolates_a_failing_case(tmp_path, capsys):
    """A case that fails does not stop the others: every finished case is
    reported, and the sweep exits with main's code for the failure."""
    sweep = {
        "base": MINIMAL,
        "cases": {
            "stuck": {"inner_max_iter": 1},  # u_c needs several Newton steps
            "ok": {"t_end": 0.002},
        },
    }
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps(sweep))
    runs = tmp_path / "runs"
    assert main(["sweep", "--config", str(p), "--out", str(runs),
                 "--jobs", "2"]) == 3
    captured = capsys.readouterr()
    assert "ok: final energy" in captured.out
    assert "stuck: nonconvergence: inner solver stopped" in captured.err
    assert (runs / "ok" / "summary.json").exists()
    assert not (runs / "stuck" / "summary.json").exists()


@pytest.fixture
def in_process_pool(monkeypatch):
    """A stand-in for the sweep's process pool that runs the cases in this
    process; returns the list of the pool sizes asked for."""
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_cli_sweep_starts_no_more_workers_than_cases(tmp_path, capsys,
                                                    monkeypatch,
                                                    in_process_pool):
    """The process pool starts all its workers on the first case, so the
    sweep asks for at most one per case: --jobs, else the CPU count, else
    1. A stand-in pool records the size asked for and runs the cases in
    this process."""
    cases = {"a": {"t_end": 0.002}, "b": {"t_end": 0.003}}
    p = write_cfg(tmp_path, {"base": MINIMAL, "cases": cases}, "sweep.json")
    for k, (jobs, cpus) in enumerate([(["--jobs", "64"], 8), (["--jobs", "1"], 8),
                                      ([], 8), ([], None)]):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        assert main(["sweep", "--config", str(p), "--out",
                     str(tmp_path / f"runs{k}"), *jobs]) == 0
        assert (tmp_path / f"runs{k}" / "b" / "final.csv").exists()
    capsys.readouterr()
    assert in_process_pool == [2, 1, 2, 1]


def test_cli_sweep_reports_the_failure_a_worker_returns(tmp_path, capsys,
                                                      in_process_pool):
    """The failure a case returns from its worker, here run in this
    process: the failed case's kind and message on stderr, the good case's
    energy on stdout, and main's exit code for the failure."""
    sweep = {"base": MINIMAL, "cases": {"stuck": {"inner_max_iter": 1},
                                        "ok": {"t_end": 0.002}}}
    p = write_cfg(tmp_path, sweep, "sweep.json")
    assert main(["sweep", "--config", str(p), "--out",
                 str(tmp_path / "runs")]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("ok: final energy ")
    assert captured.out.count("\n") == 1
    assert captured.err.startswith(
        "stuck: nonconvergence: inner solver stopped at residual ")
    assert captured.err.count("\n") == 1
    assert in_process_pool == [2]


def test_cli_sweep_parses_each_case_once(tmp_path, capsys, monkeypatch,
                                         in_process_pool):
    """The sweep parses every case before any runs, and hands each worker
    its parsed RunConfig: one parse per case, none in the worker."""
    from bendflow import config

    parsed = []

    def counting(data):
        parsed.append(data)
        return parse_config(data)
    monkeypatch.setattr(config, "parse_config", counting)
    cases = {"a": {"t_end": 0.002}, "b": {"t_end": 0.003}}
    p = write_cfg(tmp_path, {"base": MINIMAL, "cases": cases}, "sweep.json")
    assert main(["sweep", "--config", str(p), "--out",
                 str(tmp_path / "runs")]) == 0
    capsys.readouterr()
    assert [d["t_end"] for d in parsed] == [0.002, 0.003]
    assert (tmp_path / "runs" / "b" / "final.csv").exists()


def test_rearrange_missing_input_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["rearrange", "--input", str(missing), "--out",
                 str(tmp_path / "pair.csv")]) == 2
    assert f"error: {missing}: " in capsys.readouterr().err
    assert not (tmp_path / "pair.csv").exists()


def test_rearrange_out_into_missing_directory(tmp_path, capsys):
    """rearrange creates the directory of --out, as simulate, critical and
    validate create their output directories."""
    profile = tmp_path / "profile.csv"
    grid = UniformGrid(32)
    write_profile_csv(profile, GridFunction(grid, np.sin(np.pi * grid.nodes)))
    out = tmp_path / "new" / "dir" / "pair.csv"
    assert main(["rearrange", "--input", str(profile), "--out", str(out)]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    with open(out) as fh:
        assert next(csv.reader(fh)) == ["x", "f", "f_star", "f_sym", "v"]


@pytest.mark.parametrize("section", ["obstacle", "initial"])
@pytest.mark.parametrize("content", [None, "not a number", "nan", "inf"],
                         ids=["missing", "non_number", "nan", "inf"])
def test_bad_table_file_exits_2(tmp_path, capsys, section, content):
    """A table whose file is missing or holds a non-number or a non-finite
    value is an error naming the file, not a traceback."""
    path = tmp_path / "table.csv"
    if content is not None:
        write_profile_csv(path, GridFunction(UniformGrid(32), np.zeros(33)))
        path.write_text(path.read_text().replace("0.5,0", f"0.5,{content}"))
    data = dict(MINIMAL, t_end=0.002)
    data[section] = {"type": "table", "path": str(path)}
    with pytest.raises(DomainError, match=str(path)):
        getattr(parse_config(data), f"build_{section}")()
    assert main(["simulate", "--config", str(write_cfg(tmp_path, data)),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"error: {path}: " in capsys.readouterr().err


def _resume_from(tmp_path, checkpoint):
    return main(["simulate", "--config", str(write_cfg(tmp_path, MINIMAL)),
                 "--out", str(tmp_path / "out"), "--resume", str(checkpoint)])


def test_resume_without_summary_exits_2(tmp_path, capsys):
    """A checkpoint is not a run config: its missing summary is an error
    naming the file, with the prefix of every other bad input file."""
    checkpoint = tmp_path / "checkpoint"
    checkpoint.mkdir()
    summary = checkpoint / "summary.json"
    assert _resume_from(tmp_path, checkpoint) == 2
    assert capsys.readouterr().err.startswith(f"error: {summary}: ")
    # nor does a summary without a number t_final and an integer steps
    # serve: each is the same error, not a traceback
    write_profile_csv(checkpoint / "final.csv",
                      GridFunction(UniformGrid(32), np.zeros(33)))
    for content in ({}, [], {"t_final": "x", "steps": 5},
                    {"t_final": 0.01, "steps": 2.5}):
        summary.write_text(json.dumps(content))
        assert _resume_from(tmp_path, checkpoint) == 2, content
        assert capsys.readouterr().err.startswith(f"error: {summary}: ")


@pytest.mark.parametrize("content", [
    None, "x,value\n0,zero\n",
    "x,value\n0,0\n0.25,nan\n0.5,0\n0.75,0\n1,0\n"],
    ids=["missing", "malformed", "non_finite"])
def test_resume_with_bad_final_csv_exits_2(tmp_path, capsys, content):
    checkpoint = tmp_path / "checkpoint"
    assert main(["simulate", "--config", str(write_cfg(tmp_path, MINIMAL)),
                 "--out", str(checkpoint)]) == 0
    final = checkpoint / "final.csv"
    final.unlink()
    if content is not None:
        final.write_text(content)
    capsys.readouterr()
    assert _resume_from(tmp_path, checkpoint) == 2
    assert capsys.readouterr().err.startswith(f"error: {final}: ")


def test_specialfn_non_numeric_argument_exits_2(capsys):
    assert main(["specialfn", "eval", "--fn", "g", "--args", "abc"]) == 2
    assert "invalid float value: 'abc'" in capsys.readouterr().err


def test_cli_sweep_reports_the_good_case_past_a_missing_table(tmp_path, capsys):
    base = {k: v for k, v in MINIMAL.items() if k != "initial"}
    missing = tmp_path / "missing.csv"
    sweep = {"base": base, "cases": {
        "missing": {"initial": {"type": "table", "path": str(missing)}},
        "ok": {"t_end": 0.002, "initial": MINIMAL["initial"]},
    }}
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps(sweep))
    runs = tmp_path / "runs"
    assert main(["sweep", "--config", str(p), "--out", str(runs),
                 "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert "ok: final energy" in captured.out
    assert f"missing: error: {missing}: " in captured.err
    assert (runs / "ok" / "summary.json").exists()
