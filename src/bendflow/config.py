"""Run configuration: strict JSON ingestion for the simulate/sweep commands."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .discretization import (
    GridFunction,
    Obstacle,
    UniformGrid,
    cone_obstacle,
    constant_obstacle,
    read_profile_csv,
    table_obstacle,
)
from .errors import ConfigError
from .flow import FlowConfig
from .specialfn import u_c_profile

_FLOW_KEYS = {"tau", "t_end", "inner_tol", "inner_max_iter"}
_OUTPUT_KEYS = {"trajectory_csv", "snapshots", "summary_json", "plot_svg"}
_TOP_KEYS = _FLOW_KEYS | {"grid_n", "obstacle", "initial", "outputs",
                          "allow_invalid_obstacle", "stop_when_stall_rate"}


def _read_table(where: str, path, grid: UniformGrid) -> GridFunction:
    gf = read_profile_csv(path)
    _require(gf.grid.n == grid.n,
             f"{where} table has {gf.grid.n} cells, config says {grid.n}")
    return gf


def _scaled_bump(scale, grid: UniformGrid) -> GridFunction:
    xl = grid.nodes[: grid.n // 2 + 1]
    left = scale * 4.0 * xl * (1.0 - xl)
    left[0] = 0.0
    return GridFunction.from_symmetric_half(grid, left)


# One table per section: type -> (the one field it takes, that field's
# kind, "number" or "string", and builder(value, grid))
_OBSTACLE_TYPES = {
    "cone": ("height", "number", cone_obstacle),
    "table": ("path", "string",
              lambda p, grid: table_obstacle(_read_table("obstacle", p, grid))),
    "constant": ("level", "number", constant_obstacle)}
# u_c_profile is looked up at each call, so a wrapper put on this module's
# binding, as bench/tracing.py puts one, sees every call.
_INITIAL_TYPES = {
    "uc": ("c", "number", lambda c, grid: u_c_profile(c, grid)),
    "table": ("path", "string",
              lambda p, grid: _read_table("initial", p, grid)),
    "scaled_bump": ("scale", "number", _scaled_bump)}


def _build(spec: dict, types: dict, grid: UniformGrid):
    field_name, _, builder = types[spec["type"]]
    return builder(spec[field_name], grid)


@dataclass
class RunConfig:
    grid_n: int
    flow: FlowConfig
    obstacle_spec: dict
    initial_spec: dict
    outputs: dict = field(default_factory=dict)
    allow_invalid_obstacle: bool = False
    stop_when_stall_rate: float | None = None

    def grid(self) -> UniformGrid:
        return UniformGrid(self.grid_n)

    def build_obstacle(self) -> Obstacle:
        obst = _build(self.obstacle_spec, _OBSTACLE_TYPES, self.grid())
        if not obst.assumption1_ok and not self.allow_invalid_obstacle:
            raise ConfigError(
                "obstacle violates the admissible-obstacle assumption "
                "(needs negative endpoint values and a positive maximum); "
                "pass allow_invalid_obstacle to run anyway"
            )
        return obst

    def build_initial(self) -> GridFunction:
        return _build(self.initial_spec, _INITIAL_TYPES, self.grid())


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def is_path_component(name) -> bool:
    """One non-empty path component, not "." or "..": a name that, joined
    to a directory, stays inside it (output files, sweep cases)."""
    return (isinstance(name, str) and name not in ("", ".", "..")
            and Path(name).name == name)


def is_number(value) -> bool:
    """A JSON number: an int or a float, and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_section(sec: dict, types: dict, where: str) -> None:
    """A JSON object with a known `type` and exactly the one field it
    takes, of that field's kind."""
    _require(isinstance(sec, dict),
             f"{where} must be a JSON object, got {sec!r}")
    _reject_unknown(sec, {"type"} | {f for f, _, _ in types.values()}, where)
    kind = sec.get("type")
    _require(isinstance(kind, str) and kind in types,
             f"{where}.type must be {'|'.join(types)}, got {kind!r}")
    needed, value_kind, _ = types[kind]
    _require(needed in sec, f"{where} of type {kind} needs '{needed}'")
    extra = set(sec) - {"type", needed}
    _require(not extra, f"{where} of type {kind} does not take {sorted(extra)}")
    value = sec[needed]
    _require(is_number(value) if value_kind == "number"
             else isinstance(value, str),
             f"{where}.{needed} must be a {value_kind}, got {value!r}")


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a JSON object")
    _reject_unknown(data, _TOP_KEYS, "config")
    _require("grid_n" in data, "config needs grid_n")
    _require("tau" in data and "t_end" in data, "config needs tau and t_end")
    _require("obstacle" in data and "initial" in data,
             "config needs obstacle and initial sections")
    grid_n = data["grid_n"]
    _require(isinstance(grid_n, int) and grid_n >= 16,
             f"grid_n must be an integer >= 16 for flow runs, got {grid_n!r}")

    flow_kwargs = {k: data[k] for k in _FLOW_KEYS if k in data}
    for key in ("tau", "t_end", "inner_tol"):
        _require(key not in data or is_number(data[key]),
                 f"{key} must be a number, got {data.get(key)!r}")
    try:
        flow = FlowConfig(**flow_kwargs)
    except Exception as err:
        raise ConfigError(f"flow settings invalid: {err}") from err

    ob, init = data["obstacle"], data["initial"]
    _check_section(ob, _OBSTACLE_TYPES, "obstacle")
    _check_section(init, _INITIAL_TYPES, "initial")

    outputs = data.get("outputs", {})
    _require(isinstance(outputs, dict),
             f"outputs must be a JSON object, got {outputs!r}")
    _reject_unknown(outputs, _OUTPUT_KEYS, "outputs")
    if "snapshots" in outputs:
        snaps = outputs["snapshots"]
        _require(isinstance(snaps, list) and all(
            is_number(t) and 0 <= t <= data["t_end"] for t in snaps
        ), "outputs.snapshots must be a list of times within [0, t_end]")
    for key in ("trajectory_csv", "summary_json", "plot_svg"):
        # an empty trajectory_csv or plot_svg skips that file
        if key not in outputs or (key != "summary_json" and not outputs[key]):
            continue
        _require(is_path_component(outputs[key]),
                 f"outputs.{key} must be a file name with no directory part, "
                 f"got {outputs[key]!r}")

    stall = data.get("stop_when_stall_rate")
    if stall is not None:
        _require(is_number(stall) and stall > 0,
                 "stop_when_stall_rate must be a positive number")

    allow = data.get("allow_invalid_obstacle", False)
    _require(isinstance(allow, bool),
             f"allow_invalid_obstacle must be true or false, got {allow!r}")

    return RunConfig(
        grid_n=grid_n,
        flow=flow,
        obstacle_spec=ob,
        initial_spec=init,
        outputs=outputs,
        allow_invalid_obstacle=allow,
        stop_when_stall_rate=stall,
    )


def parse_sweep(data) -> list:
    """The cases of a sweep file as (name, RunConfig) pairs, in file order.

    A sweep file is an object with a 'cases' object, name -> overrides,
    and an optional 'base' run config. Each case's overrides are merged
    into a copy of base one level deep: an object merges into an object,
    any other value replaces. Each case is checked in turn, its name, its
    overrides and then its merged config, so the first bad case found is
    the one reported, and no case runs before every case has parsed."""
    _require(isinstance(data, dict) and "cases" in data,
             "sweep config needs a 'cases' object of run configs")
    base = data.get("base", {})
    _require(isinstance(base, dict), "'base' must be an object, the run "
             "config the cases override")
    cases = data["cases"]
    _require(isinstance(cases, dict) and bool(cases),
             "'cases' must be a nonempty object name -> overrides")
    parsed = []
    for name, overrides in cases.items():
        _require(is_path_component(name),
                 f"case name {name!r} is not one path component inside "
                 f"--out (nor '.' or '..')")
        _require(isinstance(overrides, dict),
                 f"case {name!r}: overrides must be an object, got "
                 f"{type(overrides).__name__}")
        merged = json.loads(json.dumps(base))
        for key, val in overrides.items():
            if isinstance(val, dict) and isinstance(merged.get(key), dict):
                merged[key].update(val)
            else:
                merged[key] = val
        parsed.append((name, parse_config(merged)))
    return parsed


def read_json(path):
    """Open and parse a JSON file; a missing or malformed file is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: JSON parse error at line {err.lineno}: "
                          f"{err.msg}") from err
    except OSError as err:
        raise ConfigError(f"{path}: {err}") from err


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration. Unknown keys are errors."""
    return parse_config(read_json(path))
