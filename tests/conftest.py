"""Fixtures and the small references that several test modules share."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kfplab
from kfplab.fields import CheckerboardRecipe, ConstantRecipe, EllipticityBounds, sample_field
from kfplab.solver import SolverConfig, solve
from kfplab.trajectory import EnergyLedger, PhaseGrid, PhaseGridFunction


def gaussian_bump(grid, cx, cv, sx, sv, floor=0.0, mass=1.0):
    x, v = grid.meshes()
    qx = np.sum((x - cx) ** 2, axis=-1) / sx**2
    qv = np.sum((v - cv) ** 2, axis=-1) / sv**2
    amp = mass / ((2 * np.pi) ** grid.d * sx**grid.d * sv**grid.d)
    return PhaseGridFunction(grid, amp * np.exp(-0.5 * (qx + qv)) + floor, 0.0)


def run_fresh_interpreter(code, *argv):
    """``python -c code *argv`` with this checkout's kfplab first on the path;
    asserts that it exits 0 and returns the finished process."""
    src = str(Path(kfplab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def exponent_sum_direct(alpha, n):
    """n + alpha (n-1) + ... + alpha^{n-1}, summed term by term."""
    return float(sum(alpha**j * (n - j) for j in range(n)))


def traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak, in bytes, that the call reached."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def ledger_from_rows(rows) -> EnergyLedger:
    """A ledger holding ``rows``, each a step and five floats."""
    rows = list(rows)
    ledger = EnergyLedger(len(rows))
    for column, values in zip(ledger.columns, zip(*rows)):
        column[:] = values
    return ledger


def ledger_rows(ledger: EnergyLedger) -> list[tuple]:
    """The rows of ``ledger``, each a Python int and five floats."""
    return list(zip(*(c.tolist() for c in ledger.columns)))


def same_ledger(a: EnergyLedger, b: EnergyLedger) -> bool:
    """Whether two ledgers hold columns of the same dtypes and bytes."""
    return len(a.columns) == len(b.columns) and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a.columns, b.columns))


@pytest.fixture(scope="session")
def long_constant_run():
    """A d = 1 8^2 constant-field solve of 32 768 steps that stores its first
    and last states, and the tracemalloc peak of that solve."""
    grid = PhaseGrid(d=1, x_extent=4.0, nx=8, v_max=3.0, nv=8)
    field = sample_field(ConstantRecipe(), EllipticityBounds(1.0, 1.0), seed=0, d=1)
    cfg = SolverConfig(grid=grid, dt=1 / 8192, t_end=4.0, field=field, snapshot_stride=10**6)
    return traced_peak(solve, cfg, gaussian_bump(grid, 2.0, 0.0, 0.4, 0.5))


@pytest.fixture(scope="session")
def identity_run():
    """Constant-diffusion reference run used by several probe tests.

    The fine step with a dense trailing snapshot window resolves the smallest
    oscillation-ladder levels used by the fit probes.
    """
    grid = PhaseGrid(d=1, x_extent=5.0, nx=64, v_max=4.0, nv=64)
    field = sample_field(ConstantRecipe(), EllipticityBounds(1.0, 1.0), seed=0, d=1)
    cfg = SolverConfig(grid=grid, dt=1 / 8192, t_end=1.0, field=field,
                       snapshot_stride=64, snapshot_tail=0.02)
    f0 = gaussian_bump(grid, 2.5, 0.0, 0.2, 0.35, floor=0.01)
    return solve(cfg, f0)


@pytest.fixture(scope="session")
def checkerboard_run():
    """A rough-coefficient run (B != 0) with strictly positive data."""
    grid = PhaseGrid(d=1, x_extent=5.0, nx=64, v_max=4.0, nv=64)
    field = sample_field(
        CheckerboardRecipe(cell=1.0, b_max=2.0, s_max=0.0),
        EllipticityBounds(0.5, 2.0), seed=11, d=1,
    )
    cfg = SolverConfig(grid=grid, dt=1 / 2048, t_end=1.0, field=field,
                       snapshot_stride=16, snapshot_tail=0.02)
    f0 = gaussian_bump(grid, 2.5, 0.0, 0.2, 0.35, floor=0.01)
    return solve(cfg, f0)
