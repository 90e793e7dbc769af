"""The solver's slow paths, kept as test oracles for the fast ones.

``advect_axis`` recomputes the semi-Lagrangian gather (or the upwind Courant
numbers) on every call and indexes through ``moveaxis``; ``gradient_v_sq``
and ``ledger_row`` go through ``np.gradient``; ``solve`` stacks a list of
snapshot copies.  Each is the arithmetic the fast path must reproduce
bitwise.
"""

from __future__ import annotations

import numpy as np

from kfplab.solver import _make_collision
from kfplab.trajectory import EnergyLedger, LedgerRow, PhaseGridFunction, Trajectory


def advect_axis(values, grid, axis, dtau, scheme):
    """Advect along x-axis ``axis`` with speed given by the paired v-axis."""
    d = grid.d
    v_axis_idx = d + axis
    moved = np.moveaxis(values, (axis, v_axis_idx), (0, 1))
    shape = moved.shape
    work = moved.reshape(grid.nx, grid.nv, -1)
    speeds = grid.v_axis

    if scheme == "semi_lagrangian":
        beta = speeds * dtau / grid.hx
        k = np.floor(beta).astype(int)
        a = beta - k
        rows = np.arange(grid.nx)[:, None]
        i0 = (rows - k[None, :]) % grid.nx
        i1 = (i0 - 1) % grid.nx
        cols = np.arange(grid.nv)[None, :]
        out = (1.0 - a)[None, :, None] * work[i0, cols, :] + a[None, :, None] * work[i1, cols, :]
    else:
        c = speeds * dtau / grid.hx
        if np.max(np.abs(c)) > 1.0 + 1e-12:
            raise ValueError("upwind CFL violated in transport substep")
        cp = np.maximum(c, 0.0)[None, :, None]
        cm = np.minimum(c, 0.0)[None, :, None]
        fm = np.roll(work, 1, axis=0)
        fp = np.roll(work, -1, axis=0)
        out = work - cp * (work - fm) - cm * (fp - work)

    return np.moveaxis(out.reshape(shape), (0, 1), (axis, v_axis_idx))


def transport(values, grid, dtau, scheme):
    out = values
    for axis in range(grid.d):
        out = advect_axis(out, grid, axis, dtau, scheme)
    return out


def gradient_v_sq(values, grid):
    out = np.zeros_like(values)
    for m in range(grid.d):
        g = np.gradient(values, grid.hv, axis=grid.d + m)
        out += g * g
    return out


def ledger_row(n, state, grid, source_l2):
    w = grid.cell_volume
    vals = state.values
    return LedgerRow(
        step=n,
        time=state.time,
        mass=float(vals.sum() * w),
        l2=float((vals**2).sum() * w),
        fmin=float(vals.min()),
        fmax=float(vals.max()),
        gradv_l2=float(gradient_v_sq(vals, grid).sum() * w),
        source_l2=source_l2,
    )


def step(state, cfg, coll):
    half = 0.5 * cfg.dt
    t_mid = state.time + half
    vals = transport(state.values, cfg.grid, half, cfg.scheme)
    vals = coll.apply(vals, t_mid)
    vals = transport(vals, cfg.grid, half, cfg.scheme)
    return PhaseGridFunction(cfg.grid, vals, state.time + cfg.dt)


def solve(cfg, f0):
    """The splitting scheme as it ran before the transport plan and the
    preallocated snapshot array."""
    coll = _make_collision(cfg)
    grid = cfg.grid
    n_steps = cfg.n_steps

    x_mesh, v_mesh = grid.meshes()
    state = PhaseGridFunction(grid, f0.values, 0.0)

    src_cache: dict = {}

    def source_l2_at(t):
        key = cfg.field.time_key(t)
        if key not in src_cache:
            s = cfg.field.s(x_mesh, v_mesh, t)
            src_cache[key] = float((s**2).sum() * grid.cell_volume)
        return src_cache[key]

    rows = [ledger_row(0, state, grid, source_l2_at(0.0))]
    times = [0.0]
    stored = [state.values.copy()]

    tail_start = cfg.t_end - cfg.snapshot_tail
    for n in range(1, n_steps + 1):
        state = step(state, cfg, coll)
        rows.append(ledger_row(n, state, grid, source_l2_at(state.time)))
        if (
            n % cfg.snapshot_stride == 0
            or n == n_steps
            or state.time > tail_start + 1e-12
        ):
            times.append(state.time)
            stored.append(state.values.copy())

    return Trajectory(
        grid=grid,
        times=np.asarray(times),
        values=np.stack(stored),
        field=cfg.field,
        ledger=EnergyLedger(tuple(rows)),
    )
