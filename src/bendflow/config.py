"""Run configuration: strict JSON ingestion for the simulate/sweep commands."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
_OBSTACLE_KEYS = {"type", "height", "path", "level"}
_INITIAL_KEYS = {"type", "c", "path", "scale"}
_OUTPUT_KEYS = {"trajectory_csv", "snapshots", "summary_json", "plot_svg"}
_TOP_KEYS = {"grid_n", "tau", "t_end", "inner_tol", "inner_max_iter",
             "obstacle", "initial", "outputs", "allow_invalid_obstacle",
             "stop_when_stall_rate"}


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
        spec = self.obstacle_spec
        grid = self.grid()
        kind = spec["type"]
        if kind == "cone":
            obst = cone_obstacle(spec["height"], grid)
        elif kind == "constant":
            obst = constant_obstacle(spec["level"], grid)
        else:
            gf = read_profile_csv(spec["path"])
            if gf.grid.n != grid.n:
                raise ConfigError(
                    f"obstacle table has {gf.grid.n} cells, config says {grid.n}"
                )
            obst = table_obstacle(gf)
        if not obst.assumption1_ok and not self.allow_invalid_obstacle:
            raise ConfigError(
                "obstacle violates the admissible-obstacle assumption "
                "(needs negative endpoint values and a positive maximum); "
                "pass allow_invalid_obstacle to run anyway"
            )
        return obst

    def build_initial(self) -> GridFunction:
        spec = self.initial_spec
        grid = self.grid()
        kind = spec["type"]
        if kind == "uc":
            return u_c_profile(spec["c"], grid)
        if kind == "scaled_bump":
            scale = spec["scale"]
            xl = grid.nodes[: grid.n // 2 + 1]
            left = scale * 4.0 * xl * (1.0 - xl)
            left[0] = 0.0
            return GridFunction.from_symmetric_half(grid, left)
        gf = read_profile_csv(spec["path"])
        if gf.grid.n != grid.n:
            raise ConfigError(
                f"initial table has {gf.grid.n} cells, config says {grid.n}"
            )
        return gf


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


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
    try:
        flow = FlowConfig(**flow_kwargs)
    except Exception as err:
        raise ConfigError(f"flow settings invalid: {err}") from err

    ob = data["obstacle"]
    _reject_unknown(ob, _OBSTACLE_KEYS, "obstacle")
    _require(ob.get("type") in ("cone", "table", "constant"),
             f"obstacle.type must be cone|table|constant, got {ob.get('type')!r}")
    variant_field = {"cone": "height", "table": "path", "constant": "level"}
    needed = variant_field[ob["type"]]
    _require(needed in ob, f"obstacle of type {ob['type']} needs '{needed}'")
    extra = {k for k in ob if k not in ("type", needed)}
    _require(not extra, f"obstacle of type {ob['type']} does not take {sorted(extra)}")

    init = data["initial"]
    _reject_unknown(init, _INITIAL_KEYS, "initial")
    _require(init.get("type") in ("uc", "table", "scaled_bump"),
             f"initial.type must be uc|table|scaled_bump, got {init.get('type')!r}")
    init_field = {"uc": "c", "table": "path", "scaled_bump": "scale"}
    needed = init_field[init["type"]]
    _require(needed in init, f"initial of type {init['type']} needs '{needed}'")
    extra = {k for k in init if k not in ("type", needed)}
    _require(not extra, f"initial of type {init['type']} does not take {sorted(extra)}")

    outputs = data.get("outputs", {})
    _reject_unknown(outputs, _OUTPUT_KEYS, "outputs")
    if "snapshots" in outputs:
        snaps = outputs["snapshots"]
        _require(isinstance(snaps, list) and all(
            isinstance(t, (int, float)) and 0 <= t <= data["t_end"] for t in snaps
        ), "outputs.snapshots must be a list of times within [0, t_end]")
    for key in ("trajectory_csv", "summary_json", "plot_svg"):
        # an empty trajectory_csv or plot_svg skips that file
        if key not in outputs or (key != "summary_json" and not outputs[key]):
            continue
        name = outputs[key]
        _require(isinstance(name, str) and name not in ("", "..")
                 and Path(name).name == name,
                 f"outputs.{key} must be a file name with no directory part, "
                 f"got {name!r}")

    stall = data.get("stop_when_stall_rate")
    if stall is not None:
        _require(isinstance(stall, (int, float)) and stall > 0,
                 "stop_when_stall_rate must be a positive number")

    return RunConfig(
        grid_n=grid_n,
        flow=flow,
        obstacle_spec=ob,
        initial_spec=init,
        outputs=outputs,
        allow_invalid_obstacle=bool(data.get("allow_invalid_obstacle", False)),
        stop_when_stall_rate=stall,
    )


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
