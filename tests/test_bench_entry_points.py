"""The benchmark calls and traces kfplab functions by name; each must exist."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import kfplab
import kfplab.cli  # the tracer wraps functions of cli and of the modules it loads

KFPBENCH = Path(__file__).resolve().parents[1] / "kfpbench"
TRACING = KFPBENCH / "tracing.py"
WORKLOADS = KFPBENCH / "workloads.py"


def test_tracer_installs_on_every_traced_function(monkeypatch):
    spec = importlib.util.spec_from_file_location("kfpbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look themselves up
    spec.loader.exec_module(tracing)
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
