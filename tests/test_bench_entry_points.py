"""The benchmark calls and traces kfplab functions by name; each must exist."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import kfplab
import kfplab.cli  # the tracer wraps functions of cli and of the modules it loads
from kfplab.fields import CheckerboardRecipe, EllipticityBounds, sample_field
from kfplab.solver import SolverConfig
from kfplab.trajectory import PhaseGrid, PhaseGridFunction

KFPBENCH = Path(__file__).resolve().parents[1] / "kfpbench"
TRACING = KFPBENCH / "tracing.py"
WORKLOADS = KFPBENCH / "workloads.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("kfpbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look themselves up
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_on_every_traced_function(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    original = kfplab.landau.landau_a_field
    tracer = tracing.Tracer()
    tracer.install(kfplab)
    try:
        assert kfplab.landau.landau_a_field is not original
    finally:
        tracer.uninstall()
    assert kfplab.landau.landau_a_field is original


def _import_from(module: str, name: str):
    """What ``from module import name`` binds, or None if it would fail."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return None


def _workload_names() -> list[tuple[str, tuple[str, ...]]]:
    """(module, attribute path) of every kfplab name the workloads use: each
    ``from kfplab... import X`` and, in the function that imports it, each
    attribute chain X.a.b read from it."""
    names = []
    for scope in ast.walk(ast.parse(WORKLOADS.read_text())):
        if not isinstance(scope, ast.FunctionDef):
            continue
        bound = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kfplab":
                for alias in node.names:
                    bound[alias.asname or alias.name] = (node.module, alias.name)
                    names.append((node.module, (alias.name,)))
        for node in ast.walk(scope):
            path = []
            while isinstance(node, ast.Attribute):
                path.insert(0, node.attr)
                node = node.value
            if path and isinstance(node, ast.Name) and node.id in bound:
                module, name = bound[node.id]
                names.append((module, (name, *path)))
    return names


def test_every_name_the_workloads_use_resolves():
    names = _workload_names()
    assert {module for module, _ in names} >= {"kfplab", "kfplab.fields", "kfplab.solver"}
    missing = []
    for module, (name, *path) in names:
        obj = _import_from(module, name)
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(".".join((module, name, *path)))
    assert missing == []


def test_traced_solve_has_one_step_span_per_step(monkeypatch):
    # solve calls the module-level step once per step, also across the
    # ledger's blocks (32 states of 32^2 here), so solver.steps counts steps
    tracing = _load_tracing(monkeypatch)
    grid = PhaseGrid(d=1, x_extent=4.0, nx=32, v_max=3.0, nv=32)
    field = sample_field(CheckerboardRecipe(cell=1.0, b_max=1.0), EllipticityBounds(0.5, 2.0),
                         seed=5, d=1)
    cfg = SolverConfig(grid=grid, dt=0.01, t_end=0.7, field=field, snapshot_stride=10)
    f0 = PhaseGridFunction(grid, np.full(grid.shape, 0.5), 0.0)
    tracer = tracing.Tracer()
    tracer.install(kfplab)
    try:
        kfplab.solver.solve(cfg, f0)
    finally:
        tracer.uninstall()
    (solve,) = [i for i, span in enumerate(tracer.spans) if span.name == "solver.solve"]
    steps = [span for span in tracer.spans if span.name == "solver.step"]
    assert len(steps) == cfg.n_steps == 70
    assert all(span.parent == solve for span in steps)
    assert tracing.layer_metrics(tracer.spans)["solver.steps"] == cfg.n_steps


@pytest.mark.parametrize("gamma", [-3.0, -1.3])
def test_traced_bound_check_times_the_landau_fields(monkeypatch, gamma):
    # check_coefficient_bounds computes A, B and c through the public field
    # functions, which are the ones the tracer wraps
    tracing = _load_tracing(monkeypatch)
    landau = kfplab.landau
    f = landau.maxwellian(landau.VelocityGrid(v_max=5.0, n=8, d=3))
    bounds = landau.MomentBounds(m1=0.5, m0=2.0, e0=2.0, h0=0.0)
    tracer = tracing.Tracer()
    tracer.install(kfplab)
    try:
        landau.check_coefficient_bounds(f, landau.LandauParams(d=3, gamma=gamma), bounds)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["landau.a_field_s"] > 0.0
    assert metrics["landau.b_field_s"] > 0.0
    if gamma != -3.0:
        assert metrics["landau.c_field_s"] > 0.0
