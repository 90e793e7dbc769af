"""On-disk formats: binary snapshots with a one-line JSON header, canonical
JSON reports with floats rendered as decimal strings, and CSV ledgers.

Snapshots are row-major 64-bit floats preceded by one JSON header line; the
round trip is bit-exact.  Reports are serialised with sorted keys and
repr-formatted floats so identical runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import typing
from pathlib import Path

import numpy as np

from .fields import field_from_descriptor
from .trajectory import EnergyLedger, LedgerRow, PhaseGrid, Trajectory

SCHEMA_VERSION = 1


def write_snapshot(path, values: np.ndarray, header: dict) -> None:
    """One JSON header line + raw row-major float64 payload."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    meta = dict(header)
    meta["schema_version"] = SCHEMA_VERSION
    meta["dims"] = list(arr.shape)
    with open(path, "wb") as fh:
        fh.write(json.dumps(meta, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(arr.tobytes(order="C"))


def read_snapshot(path) -> tuple[dict, np.ndarray]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if not isinstance(header, dict) or header.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"snapshot schema version mismatch in {path}")
        for key in ("dims", "time"):
            if key not in header:
                raise ValueError(f"snapshot header in {path} lacks the key {key!r}")
        payload = fh.read()
    dims = tuple(header["dims"])
    arr = np.frombuffer(payload, dtype=np.float64).reshape(dims).copy()
    return header, arr


def _stringify_floats(obj):
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _stringify_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify_floats(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return repr(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def canonical_json(obj) -> str:
    """Deterministic serialisation: sorted keys, floats as decimal strings."""
    return json.dumps(_stringify_floats(obj), sort_keys=True, separators=(",", ":"))


def config_digest(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def write_report(path, report: dict) -> None:
    Path(path).write_bytes(canonical_json(report).encode("utf-8"))


def write_ledger(path, ledger: EnergyLedger) -> None:
    Path(path).write_text("\n".join(ledger.csv_lines()) + "\n")


def read_ledger(path) -> EnergyLedger:
    """Parse a ledger CSV; a wrong header or a row of the wrong width is a ValueError."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != ",".join(EnergyLedger.FIELDS):
        raise ValueError(f"{path} does not start with the ledger header")
    hints = typing.get_type_hints(LedgerRow)
    kinds = [hints[name] for name in EnergyLedger.FIELDS]
    rows = []
    # row by row, so no more than one row's strings are alive at once
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(kinds):
            raise ValueError(f"{path} line {i} has {len(parts)} fields, not {len(kinds)}")
        rows.append(LedgerRow(*map(type.__call__, kinds, parts)))
    return EnergyLedger(tuple(rows))


def save_trajectory(out_dir, traj: Trajectory, seed: int, digest: str) -> None:
    """Write run_meta.json, per-snapshot binaries and the ledger CSV.

    Snapshots are written to ``snapshots.new`` and replace ``snapshots/`` only
    once every file is in place, so a rerun that fails part-way leaves the
    previous run loadable, and a rerun never keeps an earlier run's extra files.
    """
    out = Path(out_dir)
    snaps, staging, retired = out / "snapshots", out / "snapshots.new", out / "snapshots.old"
    for leftover in (staging, retired):
        shutil.rmtree(leftover, ignore_errors=True)
    staging.mkdir(parents=True)
    g = traj.grid
    header_base = {
        "kind": "phase",
        "extents": {"d": g.d, "x_extent": g.x_extent, "v_max": g.v_max},
        "spacings": {"hx": g.hx, "hv": g.hv},
        "seed": int(seed),
    }
    try:
        for n in range(traj.n_times):
            header = {**header_base, "time": float(traj.times[n])}
            write_snapshot(staging / f"snap_{n:06d}.kfs", traj.values[n], header)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    meta = {
        "schema_version": SCHEMA_VERSION,
        "config_digest": digest,
        "seed": int(seed),
        "grid": {"d": g.d, "x_extent": g.x_extent, "nx": g.nx, "v_max": g.v_max, "nv": g.nv},
        "times": [float(t) for t in traj.times],
        "field_descriptor": traj.field.descriptor if traj.field is not None else None,
        "n_snapshots": traj.n_times,
    }
    if snaps.exists():
        snaps.rename(retired)
    staging.rename(snaps)
    # plain JSON (repr-exact floats) so the descriptor reloads with its types
    (out / "run_meta.json").write_text(json.dumps(meta, sort_keys=True))
    if traj.ledger is not None:
        write_ledger(out / "ledger.csv", traj.ledger)
    shutil.rmtree(retired, ignore_errors=True)


def load_trajectory(out_dir) -> Trajectory:
    """Rebuild a trajectory from stored snapshots (field from its descriptor)."""
    out = Path(out_dir)
    meta = json.loads((out / "run_meta.json").read_text())
    if not isinstance(meta, dict) or meta.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("run_meta schema version mismatch")
    try:
        gm = meta["grid"]
        grid = PhaseGrid(
            d=int(gm["d"]),
            x_extent=float(gm["x_extent"]),
            nx=int(gm["nx"]),
            v_max=float(gm["v_max"]),
            nv=int(gm["nv"]),
        )
        n_snapshots = meta["n_snapshots"]
        descriptor = meta.get("field_descriptor")
        field = field_from_descriptor(descriptor) if descriptor else None
    except KeyError as exc:
        raise ValueError(f"run_meta.json in {out} lacks the key {exc}") from exc
    snaps = sorted((out / "snapshots").glob("snap_*.kfs"))
    if len(snaps) != n_snapshots:
        raise ValueError(f"expected {n_snapshots} snapshots, found {len(snaps)} in {out}")
    times = []
    values = []
    for path in snaps:
        header, arr = read_snapshot(path)
        times.append(float(header["time"]))
        values.append(arr)
    ledger = read_ledger(out / "ledger.csv") if (out / "ledger.csv").exists() else None
    return Trajectory(
        grid=grid,
        times=np.asarray(times),
        values=np.stack(values),
        field=field,
        ledger=ledger,
    )


def write_velocity_profile(path, values: np.ndarray, v_max: float, seed: int = 0) -> None:
    """Store a velocity-grid density in the snapshot format."""
    header = {
        "kind": "velocity",
        "extents": {"d": int(np.ndim(values)), "v_max": float(v_max)},
        "spacings": {"h": 2.0 * float(v_max) / values.shape[0]},
        "time": 0.0,
        "seed": int(seed),
    }
    write_snapshot(path, values, header)


def read_velocity_profile(path) -> tuple[np.ndarray, float]:
    header, arr = read_snapshot(path)
    if header.get("kind") != "velocity":
        raise ValueError(f"{path} is not a velocity profile")
    try:
        return arr, float(header["extents"]["v_max"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"velocity profile {path} lacks a numeric 'extents.v_max'") from exc
