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
from pathlib import Path

import numpy as np

from .fields import field_from_descriptor
from .trajectory import EnergyLedger, PhaseGrid, Trajectory

SCHEMA_VERSION = 1
_CSV_ROWS = 128     # ledger rows formatted from Python objects at a time while writing
_READ_ROWS = 1024   # ledger rows held as Python objects at a time while reading


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


def read_snapshot(path, out: np.ndarray | None = None) -> tuple[dict, np.ndarray]:
    """The header and the payload of a snapshot file.

    The payload is read straight into ``out`` when it is given, a C-contiguous
    float64 array whose shape must be the header's ``dims``, and into a new
    array otherwise.  Other dims, or a payload of another size, is a
    ValueError naming the file.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if not isinstance(header, dict) or header.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"snapshot schema version mismatch in {path}")
        for key in ("dims", "time"):
            if key not in header:
                raise ValueError(f"snapshot header in {path} lacks the key {key!r}")
        dims = tuple(header["dims"])
        if out is None:
            out = np.empty(dims)
        elif dims != out.shape:
            raise ValueError(f"snapshot {path} has dims {list(dims)}, not {list(out.shape)}")
        if fh.readinto(out.reshape(-1).view(np.uint8)) != out.nbytes or fh.read(1):
            raise ValueError(f"snapshot payload in {path} is not {out.nbytes} bytes")
    return header, out


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
    """Write the ledger CSV: the header, then one line per row, each value's
    repr, comma-separated.  Each line is written as it is formatted, from
    Python ints and floats converted ``_CSV_ROWS`` rows at a time."""
    line = ",".join(["%r"] * len(ledger.FIELDS)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(ledger.FIELDS) + "\n")
        for lo in range(0, ledger.columns[0].size, _CSV_ROWS):
            for row in zip(*(c[lo:lo + _CSV_ROWS].tolist() for c in ledger.columns)):
                fh.write(line % row)


def read_ledger(path) -> EnergyLedger:
    """Parse a ledger CSV as ``write_ledger`` writes it: the header line, then
    one row per line, an int64 step and five floats.  Any other line is a
    ValueError naming the file and its line number.  A first pass counts the
    rows; the second parses them into the columns, ``_READ_ROWS`` at a time."""
    width = len(EnergyLedger.FIELDS)
    with open(path) as fh:
        if fh.readline() != ",".join(EnergyLedger.FIELDS) + "\n":
            raise ValueError(f"{path} does not start with the ledger header")
        ledger = EnergyLedger(n_rows := sum(1 for _ in fh))
        fh.seek(0)
        fh.readline()
        rows = []
        for i, line in enumerate(fh, start=2):
            parts = line.removesuffix("\n").split(",")
            if len(parts) != width:
                raise ValueError(f"{path} line {i} has {len(parts)} fields, not {width}")
            try:
                rows.append((np.int64(parts[0]), *map(float, parts[1:])))
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path} line {i}: {exc}") from None
            if len(rows) == _READ_ROWS or i - 1 == n_rows:   # line i holds row i - 2
                for column, values in zip(ledger.columns, zip(*rows)):
                    column[i - 1 - len(rows):i - 1] = values
                rows = []
    return ledger


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
    """Rebuild a trajectory from stored snapshots (field from its descriptor).

    Each snapshot is read straight into its slot of one preallocated
    ``(n_snapshots, *grid.shape)`` float64 stack, so a replay holds the stored
    snapshots once.  A snapshot whose header's ``dims`` are not the grid's
    shape, or whose ``time`` is not its entry of run_meta's ``times``, is a
    ValueError naming the file.  So is a ``ledger.csv`` with no rows, or one
    whose ``time`` column lacks a stored time; a directory without one loads
    with no ledger.
    """
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
        meta_times = meta["times"]
        descriptor = meta.get("field_descriptor")
        field = field_from_descriptor(descriptor) if descriptor else None
    except KeyError as exc:
        raise ValueError(f"run_meta.json in {out} lacks the key {exc}") from exc
    snaps = sorted((out / "snapshots").glob("snap_*.kfs"))
    if len(snaps) != n_snapshots:
        raise ValueError(f"expected {n_snapshots} snapshots, found {len(snaps)} in {out}")
    if len(meta_times) != len(snaps):
        raise ValueError(f"run_meta.json in {out} lists {len(meta_times)} times "
                         f"for {len(snaps)} snapshots")
    times = np.empty(len(snaps))
    values = np.empty((len(snaps), *grid.shape))
    for k, path in enumerate(snaps):
        header, _ = read_snapshot(path, out=values[k])
        times[k] = t = float(header["time"])
        if t != meta_times[k]:
            raise ValueError(f"snapshot {path} has time {t!r}, "
                             f"but run_meta.json lists {meta_times[k]!r}")
    ledger = None
    if (path := out / "ledger.csv").exists():
        ledger = read_ledger(path)
        ledger_times = ledger.column("time")
        if not ledger_times.size:
            raise ValueError(f"{path} holds no rows")
        found = np.isin(times, ledger_times)
        if not found.all():
            raise ValueError(f"{path} has no row at time {float(times[np.argmin(found)])!r}, "
                             f"which run_meta.json lists")
    return Trajectory(grid=grid, times=times, values=values, field=field, ledger=ledger)


def write_velocity_profile(path, values: np.ndarray, v_max: float) -> None:
    """Store a velocity-grid density in the snapshot format, with header
    ``seed`` 0: a profile draws nothing at random."""
    header = {
        "kind": "velocity",
        "extents": {"d": int(np.ndim(values)), "v_max": float(v_max)},
        "spacings": {"h": 2.0 * float(v_max) / values.shape[0]},
        "time": 0.0,
        "seed": 0,
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
