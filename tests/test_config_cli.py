import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bendflow
from bendflow import (
    ConfigError,
    DomainError,
    GridFunction,
    UniformGrid,
    write_profile_csv,
)
from bendflow.cli import main
from bendflow.config import load_config, parse_config
from bendflow.svgplot import emit_plot

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


@pytest.mark.parametrize("section", ["obstacle", "initial"])
@pytest.mark.parametrize("value", [[], 5, "cone"])
def test_section_that_is_not_an_object_exits_2(tmp_path, capsys, section, value):
    path = write_cfg(tmp_path, {**MINIMAL, section: value})
    assert main(["simulate", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"config error: {section} must be a JSON object, got {value!r}\n")


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


def test_cli_validate_quick(tmp_path, capsys):
    assert main(["validate", "--out", str(tmp_path), "--quick"]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "validation_report.json").read_text())
    assert report["overall"] == "pass"
    assert len(report["checks"]) == 12
    names = {c["name"] for c in report["checks"]}
    assert "flow_convergence" in names and "talenti" in names


_IMPORT_PROBE = """
import json, sys
SLOW = ("scipy.integrate", "scipy.interpolate", "scipy.optimize")
from bendflow.cli import main
loaded = {"import": [m for m in sys.modules if m.startswith(SLOW)]}
assert main(["validate", "--quick", "--out", sys.argv[1] + "/validate"]) == 0
loaded["validate"] = [m for m in sys.modules if m.startswith(SLOW)]
assert main(["simulate", "--config", sys.argv[2], "--out",
             sys.argv[1] + "/simulate"]) == 0
loaded["simulate"] = [m for m in sys.modules if m.startswith(SLOW)]
print(json.dumps(loaded))
"""


def test_cli_paths_load_no_integrate_interpolate_or_optimize(tmp_path):
    """`import bendflow.cli`, `validate --quick` and the 64-cell cone
    `simulate` load none of scipy.integrate, scipy.interpolate and
    scipy.optimize: together they take about 0.3 s to import, which
    every run would pay. Run in a fresh interpreter, since the test
    suite itself imports them."""
    cfg = write_cfg(tmp_path, {**MINIMAL, "grid_n": 64, "outputs": {
        "snapshots": [0.005], "trajectory_csv": "trajectory.csv"}})
    src = Path(bendflow.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path),
                           str(cfg)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == {"import": [], "validate": [], "simulate": []}


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
@pytest.mark.parametrize("content", [None, "not a number"],
                         ids=["missing", "non_number"])
def test_bad_table_file_exits_2(tmp_path, capsys, section, content):
    """A table whose file is missing or holds a non-number is an error
    naming the file, not a traceback."""
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
    assert _resume_from(tmp_path, checkpoint) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {checkpoint / 'summary.json'}: ")


@pytest.mark.parametrize("content", [None, "x,value\n0,zero\n"],
                         ids=["missing", "malformed"])
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
