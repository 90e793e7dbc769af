"""Each script under scripts/ runs end to end through its main() at a tiny size."""

import importlib
import math
import sys
import threading
import traceback
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(autouse=True)
def forget_scripts():
    """Drop from ``sys.modules`` every script module the test imported."""
    before = set(sys.modules)
    yield
    for path in SCRIPTS.glob("*.py"):
        if path.stem not in before:
            sys.modules.pop(path.stem, None)


def run_script(monkeypatch, capsys, name: str, *args: str) -> list[str]:
    """Call ``main()`` of scripts/<name>.py with ``args`` as its command line;
    return the lines it printed to stdout.

    The script is imported under its own name from a ``sys.path`` entry, as
    ``python scripts/<name>.py`` finds it, so that pool workers can unpickle its
    functions.  The path entry goes with ``monkeypatch``, the module with
    :func:`forget_scripts`."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    module = importlib.import_module(name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    assert module.main() in (None, 0)
    return capsys.readouterr().out.splitlines()


def test_covering_sweep(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "covering_sweep", "--samples", "256")
    assert lines[0] == "delta,R,threshold,hypothesis,claim_a,claim_b"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 20  # 4 deltas x 5 radii, each R <= sqrt(delta)
    for *_, hypothesis, claim_a, claim_b in rows:
        assert claim_a in ("pass", "fail")
        assert claim_b == ("pass" if hypothesis == "True" else "hypothesis unmet")


def test_run_ensemble(monkeypatch, capsys):
    # two members, so run_jobs starts its pool wherever two cores are free
    lines = run_script(monkeypatch, capsys, "run_ensemble", "--size", "2", "--nx", "32",
                       "--nv", "32", "--dt", repr(1 / 4096))
    assert lines[0] == "seed,c_emp,gain_cbar,alpha_fit"
    ensemble = sys.modules["run_ensemble"]
    jobs = [(100, 32, 32, 1 / 4096), (101, 32, 32, 1 / 4096)]
    for line, job in zip(lines[1:], jobs, strict=True):
        constants = ensemble.one_run(*job)
        assert all(math.isfinite(c) for c in constants)
        assert line == ",".join([str(job[0]), *map(repr, constants)])
    # a member that raises (nx = 1 is no grid) surfaces with its traceback, in bounded time
    raised = []

    def run_bad_member():
        try:
            ensemble.run_jobs([jobs[0], (100, 1, 32, 1 / 4096)])
        except ValueError as exc:
            raised.append(exc)

    runner = threading.Thread(target=run_bad_member, daemon=True)
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive() and len(raised) == 1
    assert "at least two nodes" in str(raised[0])
    assert "in one_run" in "".join(traceback.format_exception(raised[0]))


def test_sde_reference(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "sde_reference", "--paths", "1000", "--steps", "10")
    assert lines[0].startswith("paths=1000 steps=10 t=1.0")
    moments = {line.split()[0]: float(line.split()[2]) for line in lines[1:]}
    # 1000 paths: the sample moments lie within a few standard errors of 2t, t^2, 2t^3/3
    assert moments == pytest.approx({"var_v": 2.0, "cov_xv": 1.0, "var_x": 2.0 / 3.0}, rel=0.25)
