"""Experiment configuration: JSON configs checked against one schema,
builders for fields / solver runs / initial data, and the probe dispatch table.

``SCHEMA`` names every section, key and JSON type once; unknown keys, missing
required keys and wrong types anywhere in a config are errors, so configs
cannot drift silently.  A field's keys are those of its recipe dataclass.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import typing
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import probes as probes_mod
from .fields import RECIPES, field_from_descriptor
from .geometry import Cylinder, CylinderShape, KineticPoint
from .solver import SolverConfig
from .trajectory import EnergyLedger, PhaseGrid, PhaseGridFunction, Trajectory

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


class Req(NamedTuple):
    """A key that must be present."""

    node: object


class Min(NamedTuple):
    """A number matching ``node`` that is at least ``lo``, or None where ``node`` allows it."""

    node: object
    lo: float


class Pick(NamedTuple):
    """An object whose other keys are those of the variant named by ``key``."""

    key: str
    default: str | None
    variants: dict


# lower bounds of recipe keys; a b_max of None still means Lambda
_RECIPE_MINIMUMS = {"s_max": 0.0, "b_max": 0.0, "n_modes": 1}


def _recipe_keys(cls) -> dict:
    """Schema node per field of a recipe dataclass: ``float | None`` gives (float, NoneType)."""
    hints = typing.get_type_hints(cls)
    keys = {f.name: typing.get_args(hints[f.name]) or hints[f.name] for f in dataclasses.fields(cls)}
    return {key: Min(node, _RECIPE_MINIMUMS[key]) if key in _RECIPE_MINIMUMS else node
            for key, node in keys.items()}


# A schema node is a dict (an object: key -> node, with Req on the keys that
# must be present), a Pick, a Min, a one-entry list (a JSON list whose entries
# all match that node), or one alternative or a tuple of them, each a type
# (float takes any number; no type but bool takes a boolean) or a literal value.
_POINT = [float]
_HARNACK = {"R": Req(float), "Delta": Req(float), "rho1": Req(float), "rho2": Req(float),
            "q": float}
_INITIAL = Pick("kind", "zero", {
    "zero": {},
    "constant": {"value": float},
    "gaussian": dict.fromkeys(("center_x", "center_v", "sigma_x", "sigma_v", "mass", "floor"), float),
})
_FIELD = Pick("recipe", "constant", {
    kind: {"lambda": float, "Lambda": float, "seed": Min(int, 0), "scale_a": float,
           **_recipe_keys(cls)}
    for kind, cls in RECIPES.items()
})
_PROBES = {
    "harnack": _HARNACK,
    "gain": {"r_int": Req(float), "r_ext": Req(float)},
    "energy": {"r_int": Req(float), "r_ext": Req(float)},
    "holder": {"omega": float, "k_levels": Min(int, 1), "r_base": (float, None)},
    "doubling": {"omega": float, "n_levels": int, "r": (float, None)},
    "oscillation": {"r": Req(float)},
    "levelsets": {"theta": Req(float), "r": Req(float)},
    "fractional": {"s_order": Req(float), "r": Req(float), "n_pairs": Min(int, 1),
                   "seed": Min(int, 0)},
    "gehring": {"q": Req(float), "r0": Req(float), "theta": float},
    "propagation": {**_HARNACK, "r_ladder": Req([float])},
    "caccioppoli": {"R": Req(float)},
    "norm": {"p": Req((float, "inf")), "r": Req(float), "normalized": bool},
}
SCHEMA = {
    "schema_version": Req((SCHEMA_VERSION,)),
    "seed": Min(int, 0),
    "solver": {
        "d": int, "x_extent": Req(float), "nx": Req(int), "v_max": Req(float), "nv": Req(int),
        "dt": Req(float), "t_end": Req(float),
        "snapshot_stride": int, "snapshot_tail": Min(float, 0.0), "initial": _INITIAL,
    },
    "field": _FIELD,
    "probes": [Pick("name", None, {name: {"center": _POINT, **keys} for name, keys in _PROBES.items()})],
    "output": {"dir": str},
    "landau": {
        "input": str, "gamma": Req(float), "d": Min(int, 2),
        "a_const": float, "b_const": float, "c_const": float,
        "profile": {"v_max": float, "n": int, "sigma": float},
        "bounds": dict.fromkeys(("m1", "m0", "e0", "h0"), Req(float)),
    },
    "geometry": {"delta": float, "R": float, "r0": float, "omega": float,
                 "n_samples": int, "d": int, "n_selfchecks": Min(int, 0)},
    "iterate": {
        "degiorgi": [dict.fromkeys(("beta", "alpha", "v0"), Req(float))],
        "moser": [{"p": Req(float), "cbar": Req(float), "a": Req(float), "n": Req(int)}],
    },
}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "a boolean",
               type(None): "null"}


def _matches(val, alt) -> bool:
    if not isinstance(alt, type):
        return type(val) is type(alt) and val == alt
    if isinstance(val, bool) or alt is bool:
        return type(val) is alt
    return isinstance(val, (int, float) if alt is float else alt)


def _check(val, node, where: str) -> None:
    """Check ``val`` against a schema node; ``where`` names it in errors."""
    if isinstance(node, (dict, Pick)) and not isinstance(val, dict):
        raise ConfigError(f"{where} must be an object, got {val!r}")
    if isinstance(node, Pick):
        tag = val.get(node.key, node.default)
        if not isinstance(tag, str) or tag not in node.variants:
            raise ConfigError(f"{where}.{node.key} must be one of {sorted(node.variants)}, got {tag!r}")
        node = {node.key: str, **node.variants[tag]}
    if isinstance(node, Min):
        _check(val, node.node, where)
        if val is not None and val < node.lo:
            raise ConfigError(f"{where} must be at least {node.lo}, got {val!r}")
    elif isinstance(node, dict):
        unknown = sorted(set(val) - set(node))
        if unknown:
            raise ConfigError(f"unknown keys {unknown} in {where}")
        missing = sorted(key for key, sub in node.items() if isinstance(sub, Req) and key not in val)
        if missing:
            raise ConfigError(f"missing keys {missing} in {where}")
        for key, item in val.items():
            sub = node[key]
            _check(item, sub.node if isinstance(sub, Req) else sub, f"{where}.{key}")
    elif isinstance(node, list):
        if not isinstance(val, list):
            raise ConfigError(f"{where} must be a list, got {val!r}")
        for i, item in enumerate(val):
            _check(item, node[0], f"{where}[{i}]")
    else:
        alts = node if isinstance(node, tuple) else (node,)
        if not any(_matches(val, alt) for alt in alts):
            names = " or ".join(_TYPE_NAMES.get(alt, repr(alt)) for alt in alts)
            raise ConfigError(f"{where} must be {names}, got {val!r}")


def given(section: dict, *keys: str) -> dict:
    """The entries of ``section`` among ``keys``; the callee's defaults fill the rest."""
    return {key: section[key] for key in keys if key in section}


def _non_finite(literal: str):
    """JSON has no NaN or infinities; Python's parser would read these literals."""
    raise ConfigError(f"non-finite number {literal} is not allowed")


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(), parse_constant=_non_finite)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    validate_config(raw)
    return raw


def validate_config(cfg: dict) -> None:
    _check(cfg, SCHEMA, "config")
    if {"input", "profile"} <= set(cfg.get("landau", {})):
        raise ConfigError("config.landau takes an input or a profile, not both")


def _dimension(cfg: dict) -> int:
    return cfg.get("solver", {}).get("d", 1)


def build_field(cfg: dict, seed_override: int | None = None):
    """Build the config's field through its descriptor (the one recipe parser)."""
    section = cfg.get("field", {})
    desc = {"lambda": 1.0, "Lambda": 1.0, **section}
    desc["kind"] = desc.pop("recipe", _FIELD.default)
    desc["seed"] = seed_override if seed_override is not None else section.get("seed", cfg.get("seed", 0))
    desc["d"] = _dimension(cfg)
    scale = desc.pop("scale_a", 1.0)
    if scale != 1.0:
        desc["corrupted_scale"] = scale
    try:
        return field_from_descriptor(desc)
    except ValueError as exc:
        raise ConfigError(f"invalid field: {exc}") from exc


def check_memory(what: str, size: int) -> None:
    """Reject a config whose ``what`` would take ``size`` bytes, more than the
    machine's physical memory, before any of it is allocated."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if size > memory:
        raise ConfigError(f"{what} take {size} bytes, more than the {memory} bytes of physical memory")


def build_solver_config(cfg: dict, field) -> SolverConfig:
    section = cfg.get("solver")
    if section is None:
        raise ConfigError("config has no solver section")
    try:
        grid = PhaseGrid(d=_dimension(cfg), **given(section, "x_extent", "nx", "v_max", "nv"))
        solver_cfg = SolverConfig(grid=grid, field=field, **given(
            section, "dt", "t_end", "snapshot_stride", "snapshot_tail"))
    except (ValueError, NotImplementedError) as exc:
        raise ConfigError(str(exc)) from exc
    check_memory("the stored snapshots", solver_cfg.stack_bytes)
    check_memory("the ledger's columns", (solver_cfg.n_steps + 1) * 8 * len(EnergyLedger.FIELDS))
    # the run evaluates the field on [0, x_extent] x [-v_max, v_max] x [0, t_end]; a
    # recipe that cannot index that box rejects it here, at its two extreme corners
    ones = np.ones(grid.d)
    try:
        field.a(np.outer([0.0, grid.x_extent], ones), np.outer([-grid.v_max, grid.v_max], ones),
                np.array([0.0, solver_cfg.t_end]))
    except ValueError as exc:
        raise ConfigError(f"solver grid (x_extent {grid.x_extent!r}, v_max {grid.v_max!r}, "
                          f"t_end {solver_cfg.t_end!r}) reaches beyond the field: {exc}") from exc
    return solver_cfg


def build_initial(grid: PhaseGrid, section: dict | None) -> PhaseGridFunction:
    section = section or {}
    kind = section.get("kind", _INITIAL.default)
    if kind == "zero":
        return PhaseGridFunction(grid, np.zeros(grid.shape), 0.0)
    if kind == "constant":
        return PhaseGridFunction(grid, np.full(grid.shape, section.get("value", 1.0), dtype=float), 0.0)
    if kind == "gaussian":
        x, v = grid.meshes()
        cx = section.get("center_x", grid.x_extent / 2.0)
        cv = section.get("center_v", 0.0)
        sx = section.get("sigma_x", grid.x_extent / 10.0)
        sv = section.get("sigma_v", grid.v_max / 10.0)
        if min(sx, sv) <= 0:
            raise ConfigError(f"gaussian widths must be positive, got {sx}, {sv}")
        sx2, sv2 = _width_squared("sigma_x", sx), _width_squared("sigma_v", sv)
        norm = (2 * math.pi) ** grid.d * sx**grid.d * sv**grid.d
        amp = section.get("mass", 1.0) / norm if norm > 0.0 else math.inf
        with np.errstate(all="ignore"):   # a state that is not finite is rejected below
            qx = np.sum((x - cx) ** 2, axis=-1) / sx2
            qv = np.sum((v - cv) ** 2, axis=-1) / sv2
            values = amp * np.exp(-0.5 * (qx + qv)) + section.get("floor", 0.0)
        if not np.isfinite(values).all():
            raise ConfigError(f"initial gaussian is not finite (sigma_x {sx!r}, sigma_v {sv!r}, "
                              f"mass {section.get('mass', 1.0)!r}, floor {section.get('floor', 0.0)!r})")
        return PhaseGridFunction(grid, values, 0.0)
    raise ConfigError(f"unknown initial kind {kind!r}")


def _width_squared(key: str, width) -> float:
    """width^2 of a gaussian initial width; a square that overflows or
    underflows is a ConfigError naming ``key``."""
    try:
        square = float(width) ** 2
    except OverflowError:
        square = math.inf
    if not 0.0 < square < math.inf:
        raise ConfigError(f"initial.{key} = {width!r}: its square overflows or underflows")
    return square


def _point(spec, d: int) -> KineticPoint:
    if spec is None:
        return KineticPoint.origin(d)
    arr = [float(x) for x in spec]
    if len(arr) != 2 * d + 1:
        raise ConfigError(f"center must have 2d+1 = {2 * d + 1} entries, got {len(arr)}")
    return KineticPoint(np.array(arr[:d]), np.array(arr[d : 2 * d]), arr[2 * d])


def _measured(name: str, params: dict, constants: dict) -> probes_mod.ProbeReport:
    return probes_mod.ProbeReport(name=name, params=params, constants=constants, verdict="ok")


def run_probe(traj: Trajectory, spec: dict) -> probes_mod.ProbeReport:
    """Dispatch one probe description onto a trajectory.

    Only the optional keys the config sets are passed on, so the probe's own
    defaults apply to the rest.
    """
    name = spec["name"]
    center = _point(spec.get("center"), traj.d)
    if name in ("harnack", "propagation"):
        params = probes_mod.HarnackParams(r=spec["R"], delta=spec["Delta"], rho1=spec["rho1"],
                                          rho2=spec["rho2"], center=center, **given(spec, "q"))
        if name == "harnack":
            return probes_mod.harnack_probe(traj, params)
        return probes_mod.propagation_probe(traj, params, spec["r_ladder"])
    if name in ("gain", "energy"):
        probe = probes_mod.gain_probe if name == "gain" else probes_mod.energy_estimate_check
        return probe(traj, Cylinder(center, spec["r_int"]), Cylinder(center, spec["r_ext"]))
    if name == "holder":
        return probes_mod.holder_fit(traj, center, **given(spec, "omega", "k_levels", "r_base"))
    if name == "doubling":
        return probes_mod.doubling_probe(traj, z0=center if "center" in spec else None,
                                         **given(spec, "omega", "n_levels", "r"))
    if name == "oscillation":
        osc = probes_mod.oscillation(traj, Cylinder(center, spec["r"]))
        return _measured("oscillation", {"r": spec["r"]}, {"osc": osc})
    if name == "levelsets":
        ls = probes_mod.level_set_measures(traj, spec["theta"], Cylinder(center, spec["r"]))
        return _measured("levelsets", {"theta": spec["theta"]},
                         {"high": ls.high, "low": ls.low, "mid": ls.mid, "region": ls.region})
    if name == "fractional":
        value = probes_mod.fractional_seminorm(traj, spec["s_order"], Cylinder(center, spec["r"]),
                                               **given(spec, "n_pairs", "seed"))
        return _measured("fractional", {"s_order": spec["s_order"], "r": spec["r"]},
                         {"seminorm_sq": value})
    if name == "gehring":
        return probes_mod.gehring_probe(traj, spec["q"], Cylinder(center, spec["r0"], CylinderShape.CUBE),
                                        **given(spec, "theta"))
    if name == "caccioppoli":
        return probes_mod.caccioppoli_probe(traj, center, spec["R"])
    if name == "norm":
        p = math.inf if spec["p"] == "inf" else spec["p"]
        value = probes_mod.norm_on_cylinder(traj, Cylinder(center, spec["r"]), p,
                                            **given(spec, "normalized"))
        return _measured("norm", {"p": spec["p"], "r": spec["r"]}, {"norm": value})
    raise ConfigError(f"unknown probe {name!r}")
