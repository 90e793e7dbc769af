"""Experiment configuration: schema-validated JSON with nesting, builders for
fields / solver runs / initial data, and the probe dispatch table.

Unknown keys anywhere in a config are errors so that configs cannot drift
silently.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import probes as probes_mod
from .fields import field_from_descriptor
from .geometry import Cylinder, CylinderShape, KineticPoint
from .solver import SolverConfig
from .trajectory import PhaseBox, PhaseGrid, PhaseGridFunction, Trajectory

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


_TOP_KEYS = {"schema_version", "seed", "solver", "field", "probes", "output",
             "landau", "geometry", "iterate"}
_SOLVER_KEYS = {"d", "x_extent", "nx", "v_max", "nv", "dt", "t_end", "boundary",
                "scheme", "snapshot_stride", "snapshot_tail", "initial"}
_INITIAL_KEYS = {"kind", "value", "center_x", "center_v", "sigma_x", "sigma_v",
                 "mass", "floor"}
_FIELD_KEYS = {"recipe", "lambda", "Lambda", "seed", "a_value", "b_value", "s_value",
               "cell", "b_max", "s_max", "corr_x", "corr_v", "corr_t", "n_modes",
               "period", "scale_a"}
_OUTPUT_KEYS = {"dir"}
# value types wherever validate_config checks them; other keys are not numbers
_INTEGER_KEYS = {"d", "nx", "nv", "snapshot_stride", "seed", "n_modes",
                 "k_levels", "n_levels", "n_pairs", "n_samples", "n_selfchecks"}
_NUMBER_KEYS = {"x_extent", "v_max", "dt", "t_end", "snapshot_tail",
                "value", "center_x", "center_v", "sigma_x", "sigma_v", "mass", "floor",
                "lambda", "Lambda", "a_value", "b_value", "s_value", "cell", "b_max",
                "s_max", "corr_x", "corr_v", "corr_t", "period", "scale_a",
                "R", "Delta", "rho1", "rho2", "q", "r_int", "r_ext", "omega", "r_base",
                "r", "theta", "s_order", "r0", "gamma", "a_const", "b_const", "c_const", "delta"}
_NULLABLE_KEYS = {"a_value", "b_max", "r_base", "r"}   # null keeps the default
_LANDAU_KEYS = {"input", "profile", "gamma", "d", "bounds", "a_const", "b_const", "c_const"}
_GEOMETRY_KEYS = {"delta", "R", "r0", "omega", "n_samples", "d", "n_selfchecks"}
_ITERATE_KEYS = {"degiorgi", "moser"}

PROBE_KEYS = {
    "harnack": {"name", "R", "Delta", "rho1", "rho2", "q", "center"},
    "gain": {"name", "r_int", "r_ext", "center"},
    "energy": {"name", "r_int", "r_ext", "center"},
    "holder": {"name", "omega", "k_levels", "r_base", "center"},
    "doubling": {"name", "omega", "n_levels", "r", "center"},
    "oscillation": {"name", "r", "center"},
    "levelsets": {"name", "theta", "r", "center", "region"},
    "fractional": {"name", "s_order", "r", "center", "n_pairs", "seed"},
    "gehring": {"name", "q", "r0", "theta", "center"},
    "propagation": {"name", "R", "Delta", "rho1", "rho2", "q", "r_ladder", "center"},
    "caccioppoli": {"name", "R", "center"},
    "norm": {"name", "p", "r", "center", "normalized"},
}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _check_numbers(section: dict, where: str) -> None:
    for key, val in section.items():
        if key in _NULLABLE_KEYS and val is None:
            continue
        if key in _INTEGER_KEYS:
            if not isinstance(val, int) or isinstance(val, bool):
                raise ConfigError(f"{key} in {where} must be an integer, got {val!r}")
        elif key in _NUMBER_KEYS:
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise ConfigError(f"{key} in {where} must be a number, got {val!r}")


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    validate_config(raw)
    return raw


def validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "top level")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    _check_numbers(cfg, "top level")
    if "solver" in cfg:
        _check_keys(cfg["solver"], _SOLVER_KEYS, "solver")
        _check_numbers(cfg["solver"], "solver")
        if "initial" in cfg["solver"]:
            _check_keys(cfg["solver"]["initial"], _INITIAL_KEYS, "solver.initial")
            _check_numbers(cfg["solver"]["initial"], "solver.initial")
    if "field" in cfg:
        _check_keys(cfg["field"], _FIELD_KEYS, "field")
        _check_numbers(cfg["field"], "field")
    if "output" in cfg:
        _check_keys(cfg["output"], _OUTPUT_KEYS, "output")
    if "landau" in cfg:
        _check_keys(cfg["landau"], _LANDAU_KEYS, "landau")
        _check_numbers(cfg["landau"], "landau")
    if "geometry" in cfg:
        _check_keys(cfg["geometry"], _GEOMETRY_KEYS, "geometry")
        _check_numbers(cfg["geometry"], "geometry")
    if "iterate" in cfg:
        _check_keys(cfg["iterate"], _ITERATE_KEYS, "iterate")
    for i, probe in enumerate(cfg.get("probes", [])):
        name = probe.get("name")
        if name not in PROBE_KEYS:
            raise ConfigError(f"unknown probe name {name!r} (probe #{i})")
        _check_keys(probe, PROBE_KEYS[name], f"probe #{i} ({name})")
        _check_numbers(probe, f"probe #{i} ({name})")


def build_field(cfg: dict, seed_override: int | None = None):
    """Build the config's field through its descriptor (the one recipe parser)."""
    section = cfg.get("field", {})
    desc = {"lambda": 1.0, "Lambda": 1.0, **section}
    desc["kind"] = desc.pop("recipe", "constant")
    if seed_override is not None:
        desc["seed"] = seed_override
    else:
        desc["seed"] = section.get("seed", cfg.get("seed", 0))
    desc["d"] = cfg.get("solver", {}).get("d", 1)
    scale = desc.pop("scale_a", 1.0)
    if scale != 1.0:
        desc["corrupted_scale"] = scale
    try:
        return field_from_descriptor(desc)
    except ValueError as exc:
        raise ConfigError(f"invalid field: {exc}") from exc


def build_solver_config(cfg: dict, field) -> SolverConfig:
    section = cfg.get("solver")
    if section is None:
        raise ConfigError("config has no solver section")
    grid = PhaseGrid(
        d=section.get("d", 1),
        x_extent=section["x_extent"],
        nx=section["nx"],
        v_max=section["v_max"],
        nv=section["nv"],
    )
    try:
        return SolverConfig(
            grid=grid,
            dt=section["dt"],
            t_end=section["t_end"],
            field=field,
            boundary=section.get("boundary", "periodic_x_noflux_v"),
            scheme=section.get("scheme", "semi_lagrangian"),
            snapshot_stride=section.get("snapshot_stride", 1),
            snapshot_tail=section.get("snapshot_tail", 0.0),
        )
    except (ValueError, NotImplementedError) as exc:
        raise ConfigError(str(exc)) from exc


def build_initial(grid: PhaseGrid, section: dict | None) -> PhaseGridFunction:
    section = section or {"kind": "zero"}
    kind = section.get("kind", "zero")
    if kind == "zero":
        return PhaseGridFunction(grid, np.zeros(grid.shape), 0.0)
    if kind == "constant":
        return PhaseGridFunction(grid, np.full(grid.shape, float(section.get("value", 1.0))), 0.0)
    if kind == "gaussian":
        x, v = grid.meshes()
        cx = float(section.get("center_x", grid.x_extent / 2.0))
        cv = float(section.get("center_v", 0.0))
        sx = float(section.get("sigma_x", grid.x_extent / 10.0))
        sv = float(section.get("sigma_v", grid.v_max / 10.0))
        mass = float(section.get("mass", 1.0))
        floor = float(section.get("floor", 0.0))
        qx = np.sum((x - cx) ** 2, axis=-1) / sx**2
        qv = np.sum((v - cv) ** 2, axis=-1) / sv**2
        amp = mass / ((2 * math.pi) ** grid.d * sx**grid.d * sv**grid.d)
        return PhaseGridFunction(grid, amp * np.exp(-0.5 * (qx + qv)) + floor, 0.0)
    raise ConfigError(f"unknown initial kind {kind!r}")


def _point(spec, d: int) -> KineticPoint:
    if spec is None:
        return KineticPoint.origin(d)
    arr = [float(x) for x in spec]
    if len(arr) != 2 * d + 1:
        raise ConfigError(f"center must have 2d+1 = {2 * d + 1} entries, got {len(arr)}")
    return KineticPoint(np.array(arr[:d]), np.array(arr[d : 2 * d]), arr[2 * d])


def run_probe(traj: Trajectory, spec: dict) -> probes_mod.ProbeReport:
    """Dispatch one probe description onto a trajectory."""
    name = spec["name"]
    d = traj.d
    center = _point(spec.get("center"), d)
    if name == "harnack":
        params = probes_mod.HarnackParams(
            r=spec["R"], delta=spec["Delta"], rho1=spec["rho1"], rho2=spec["rho2"],
            q=spec.get("q", 2.0), center=center,
        )
        return probes_mod.harnack_probe(traj, params)
    if name == "gain":
        return probes_mod.gain_probe(
            traj, Cylinder(center, spec["r_int"]), Cylinder(center, spec["r_ext"])
        )
    if name == "energy":
        return probes_mod.energy_estimate_check(
            traj, Cylinder(center, spec["r_int"]), Cylinder(center, spec["r_ext"])
        )
    if name == "holder":
        return probes_mod.holder_fit(
            traj, center, omega=spec.get("omega", 0.25),
            k_levels=spec.get("k_levels", 4), r_base=spec.get("r_base"),
        )
    if name == "doubling":
        return probes_mod.doubling_probe(
            traj, omega=spec.get("omega", 0.25), n_levels=spec.get("n_levels", 2),
            z0=center if spec.get("center") is not None else None, r=spec.get("r"),
        )
    if name == "oscillation":
        osc = probes_mod.oscillation(traj, Cylinder(center, spec["r"]))
        return probes_mod.ProbeReport(
            name="oscillation", params={"r": spec["r"]},
            constants={"osc": osc}, verdict="ok",
        )
    if name == "levelsets":
        region_spec = spec.get("region")
        if region_spec == "unit_box":
            region = PhaseBox(center, 1.0, 1.0, -2.0, 0.0)
        else:
            region = Cylinder(center, spec["r"])
        ls = probes_mod.level_set_measures(traj, spec["theta"], region)
        return probes_mod.ProbeReport(
            name="levelsets", params={"theta": spec["theta"]},
            constants={"high": ls.high, "low": ls.low, "mid": ls.mid, "region": ls.region},
            verdict="ok",
        )
    if name == "fractional":
        value = probes_mod.fractional_seminorm(
            traj, spec["s_order"], Cylinder(center, spec["r"]),
            n_pairs=spec.get("n_pairs", 20000), seed=spec.get("seed", 0),
        )
        return probes_mod.ProbeReport(
            name="fractional", params={"s_order": spec["s_order"], "r": spec["r"]},
            constants={"seminorm_sq": value}, verdict="ok",
        )
    if name == "gehring":
        return probes_mod.gehring_probe(
            traj, spec["q"], Cylinder(center, spec["r0"], CylinderShape.CUBE),
            theta=spec.get("theta", 0.5),
        )
    if name == "propagation":
        params = probes_mod.HarnackParams(
            r=spec["R"], delta=spec["Delta"], rho1=spec["rho1"], rho2=spec["rho2"],
            q=spec.get("q", 2.0), center=center,
        )
        return probes_mod.propagation_probe(traj, params, spec["r_ladder"])
    if name == "caccioppoli":
        return probes_mod.caccioppoli_probe(traj, center, spec["R"])
    if name == "norm":
        p = math.inf if spec["p"] == "inf" else float(spec["p"])
        value = probes_mod.norm_on_cylinder(
            traj, Cylinder(center, spec["r"]), p, normalized=spec.get("normalized", False)
        )
        return probes_mod.ProbeReport(
            name="norm", params={"p": spec["p"], "r": spec["r"]},
            constants={"norm": value}, verdict="ok",
        )
    raise ConfigError(f"unknown probe {name!r}")
