"""The storage module's slow paths, kept as test oracles for the fast ones.

``write_ledger`` formats every row of ``conftest.ledger_rows`` and joins the
lines into one string before writing it, and ``read_ledger`` reads the whole
file, strips it and splits it into a list of lines, and parses every row into
a tuple before it builds the columns.
``load_trajectory`` reads each snapshot into a copy of its own and
``np.stack``s the list, so it holds every snapshot twice.  The program's
functions must write the same bytes and return the same rows and stacks; for
the ledger reader, that holds on files in the format the writer writes, the
only format the program reads.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from kfplab.fields import field_from_descriptor
from kfplab.storage import SCHEMA_VERSION
from kfplab.trajectory import EnergyLedger, PhaseGrid, Trajectory

from conftest import ledger_from_rows, ledger_rows


def write_ledger(path, ledger: EnergyLedger) -> None:
    lines = [",".join(EnergyLedger.FIELDS)] + [",".join(map(repr, row)) for row in ledger_rows(ledger)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_ledger(path) -> EnergyLedger:
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != ",".join(EnergyLedger.FIELDS):
        raise ValueError(f"{path} does not start with the ledger header")
    kinds = [int] + [float] * (len(EnergyLedger.FIELDS) - 1)
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(kinds):
            raise ValueError(f"{path} line {i} has {len(parts)} fields, not {len(kinds)}")
        rows.append(tuple(map(type.__call__, kinds, parts)))
    return ledger_from_rows(rows)


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


def load_trajectory(out_dir) -> Trajectory:
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
