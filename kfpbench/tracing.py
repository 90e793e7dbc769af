"""Spans around calls into kfplab's layers, recorded from the benchmark's side.

A :class:`Tracer` replaces public functions of kfplab's modules (and the
field evaluation methods) with wrappers that record one span per call: name,
start, end, parent span and an optional measurement of the call's result.
Spans stay in memory; :func:`layer_metrics` reduces them to per-layer
numbers once a round has finished.  Nothing inside the package is changed.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

PROBES = {
    "harnack_probe": "harnack",
    "gain_probe": "gain",
    "holder_fit": "holder",
    "energy_estimate_check": "energy",
    "oscillation": "oscillation",
    "level_set_measures": "levelsets",
    "norm_on_cylinder": "norm",
    "doubling_probe": "doubling",
    "caccioppoli_probe": "caccioppoli",
    "fractional_seminorm": "fractional",
    "gehring_probe": "gehring",
    "propagation_probe": "propagation",
}
FIELD_EVALS = ("fields.a", "fields.b", "fields.s")
LANDAU_FIELDS = {"landau_a_field": "a_field", "landau_b_field": "b_field",
                 "landau_c_field": "c_field"}
MB = 1e6


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    measure: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple] = field(default_factory=list)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx].start, self.spans[idx].end = start, time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Record a span per call of ``owner.attr``; ``measure(args, result)``
        is evaluated after the span has closed."""
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx = self._open(name)
            start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx].start, self.spans[idx].end = start, end
            if measure is not None:
                self.spans[idx].measure = float(measure(args, result))
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, inner))

    def install(self, kfplab) -> None:
        """Wrap every traced entry point of the imported package."""
        cli, fields, landau = kfplab.cli, kfplab.fields, kfplab.landau
        probes, solver, storage, trajectory = (kfplab.probes, kfplab.solver, kfplab.storage,
                                               kfplab.trajectory)
        self.wrap(solver, "solve", "solver.solve", lambda a, r: r.values.nbytes)
        self.wrap(solver, "step", "solver.step")
        for method in ("a", "b", "s"):
            self.wrap(fields.CoefficientField, method, f"fields.{method}", _points)
        for owner in (fields, cli, kfplab):
            self.wrap(owner, "certify_field", "fields.certify_field")
        for owner in (trajectory, probes):
            self.wrap(owner, "region_mask", "trajectory.region_mask", lambda a, r: r.any())
        for fn, probe in PROBES.items():
            self.wrap(probes, fn, f"probes.{probe}")
        self.wrap(probes, "_source_values", "probes.source_values")
        for owner in (storage, cli):
            self.wrap(owner, "save_trajectory", "storage.save_trajectory",
                      lambda a, r: _run_bytes(a[0]))
            self.wrap(owner, "load_trajectory", "storage.load_trajectory",
                      lambda a, r: _run_bytes(a[0]))
        for fn in LANDAU_FIELDS:
            self.wrap(landau, fn, f"landau.{fn}")
        self.wrap(landau, "check_coefficient_bounds", "landau.check_coefficient_bounds")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, inner = self._undo.pop()
            setattr(owner, attr, inner)

    def reset(self) -> None:
        self.spans.clear()


def _points(args, result) -> int:
    shape = getattr(args[1], "shape", ())
    count = 1
    for extent in shape[:-1]:
        count *= int(extent)
    return count


def _run_bytes(out_dir) -> int:
    """Size of a stored run: snapshots, run_meta.json and ledger.csv."""
    out = Path(out_dir)
    paths = list((out / "snapshots").glob("snap_*.kfs"))
    paths += [p for p in (out / "run_meta.json", out / "ledger.csv") if p.exists()]
    return sum(p.stat().st_size for p in paths)


def _ancestors(spans: list[Span], idx: int):
    parent = spans[idx].parent
    while parent >= 0:
        yield spans[parent]
        parent = spans[parent].parent


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer work, time and ratios of one round's spans."""
    by_name: dict[str, list[int]] = {}
    children: dict[int, list[int]] = {}
    for i, sp in enumerate(spans):
        by_name.setdefault(sp.name, []).append(i)
        children.setdefault(sp.parent, []).append(i)

    def duration(idx) -> float:
        return sum(spans[i].duration for i in idx)

    def total(name: str) -> float:
        return duration(by_name.get(name, ()))

    def measured(name: str) -> float:
        return sum(spans[i].measure for i in by_name.get(name, ()))

    def self_time(name: str) -> float:
        return sum(spans[i].duration - duration(children.get(i, ()))
                   for i in by_name.get(name, ()))

    def under(i: int, prefix: str) -> bool:
        return any(a.name.startswith(prefix) for a in _ancestors(spans, i))

    steps = by_name.get("solver.step", [])
    evals = [i for name in FIELD_EVALS for i in by_name.get(name, ())]
    masks = by_name.get("trajectory.region_mask", [])
    outer_probes = [i for name in PROBES.values() for i in by_name.get(f"probes.{name}", ())
                    if not under(i, "probes.")]
    out = {
        "stage.solve_s": total("solver.solve"),
        "stage.probe_s": duration(i for i in outer_probes if not under(i, "replay")),
        "stage.replay_s": total("replay"),
        "stage.landau_s": total("landau.check_coefficient_bounds"),
        "solver.steps": float(len(steps)),
        "solver.step_us": statistics.median(spans[i].duration for i in steps) * 1e6
        if steps else 0.0,
        "solver.solve_self_s": self_time("solver.solve"),
        "solver.assemblies": float(sum(
            any(spans[c].name == "fields.a" for c in children.get(i, ())) for i in steps)),
        "fields.solver_eval_s": duration(i for i in evals if under(i, "solver.solve")),
        "fields.probe_eval_s": duration(i for i in evals if under(i, "probes.")),
        "fields.eval_points": sum(spans[i].measure for i in evals),
        "fields.certify_s": total("fields.certify_field"),
        "trajectory.region_mask_calls": float(len(masks)),
        "trajectory.region_mask_s": duration(masks),
        "trajectory.region_hit_ratio": measured("trajectory.region_mask") / len(masks)
        if masks else 0.0,
        "trajectory.stored_mb": max([spans[i].measure / MB
                                     for i in by_name.get("solver.solve", ())] + [0.0]),
        "probes.source_values_s": total("probes.source_values"),
        "probes.source_share": total("probes.source_values") / duration(outer_probes)
        if outer_probes else 0.0,
        "storage.save_s": total("storage.save_trajectory"),
        "storage.bytes_written": measured("storage.save_trajectory"),
        "storage.load_s": total("storage.load_trajectory"),
        "storage.bytes_read": measured("storage.load_trajectory"),
        "landau.bounds_s": self_time("landau.check_coefficient_bounds"),
    }
    for name in PROBES.values():
        out[f"probes.{name}_s"] = duration(i for i in outer_probes
                                           if spans[i].name == f"probes.{name}")
    for fn, short in LANDAU_FIELDS.items():
        out[f"landau.{short}_s"] = total(f"landau.{fn}")
    return out
