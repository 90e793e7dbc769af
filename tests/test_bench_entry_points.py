"""The benchmark's tracer wraps kfplab functions by name; each must exist."""

import importlib.util
import sys
from pathlib import Path

import kfplab

TRACING = Path(__file__).resolve().parents[1] / "kfpbench" / "tracing.py"


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
