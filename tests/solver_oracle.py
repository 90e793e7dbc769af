"""The solver's slow paths, kept as test oracles for the fast ones.

``advect_axis`` recomputes the semi-Lagrangian gather on every call and
indexes through ``moveaxis``; ``gradient_v_sq`` and ``ledger_row`` go through
``np.gradient``; ``Collision1D`` builds the bands in fresh arrays and
factorises them with ``dgttrf`` at every assembly, then solves every step
with ``dgttrs``; ``Collision2D`` assembles the d = 2 stencil node by node;
both collision oracles evaluate A, B and s through ``field.a/b/s`` at every
assembly (never through the node-bound evaluators) and add ``dt * s`` at
every step; ``solve`` evaluates the source through ``field.s`` for every
ledger row and stacks a list of snapshot copies.  Each is the arithmetic the
fast path must reproduce bitwise, for smooth fields up to the rounding of the
node evaluators.

The exact solutions of the constant-diffusion flow (``kolmogorov_oracle``,
``gaussian_exact_solution``, and ``gaussian_solution_spd`` for any constant
SPD A) and ``comparison_check``, which runs two ordered initial states
through the solver, are the references the scheme converges to and the
ordering it must keep.

``dilated`` carries a field through the kinetic dilation, under which the
scheme commutes with the equation exactly when r is a power of 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
from scipy.linalg import lapack
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import splu

from kfplab.fields import CoefficientField
from kfplab.solver import SolverConfig, _Collision1D, _Collision2D, solve as fast_solve
from kfplab.trajectory import PhaseGridFunction, Trajectory

from conftest import ledger_from_rows


def advect_axis(values, grid, axis, dtau):
    """Advect along x-axis ``axis`` with speed given by the paired v-axis."""
    d = grid.d
    v_axis_idx = d + axis
    moved = np.moveaxis(values, (axis, v_axis_idx), (0, 1))
    shape = moved.shape
    work = moved.reshape(grid.nx, grid.nv, -1)

    beta = grid.v_axis * dtau / grid.hx
    k = np.floor(beta).astype(int)
    a = beta - k
    rows = np.arange(grid.nx)[:, None]
    i0 = (rows - k[None, :]) % grid.nx
    i1 = (i0 - 1) % grid.nx
    cols = np.arange(grid.nv)[None, :]
    out = (1.0 - a)[None, :, None] * work[i0, cols, :] + a[None, :, None] * work[i1, cols, :]

    return np.moveaxis(out.reshape(shape), (0, 1), (axis, v_axis_idx))


def transport(values, grid, dtau):
    out = values
    for axis in range(grid.d):
        out = advect_axis(out, grid, axis, dtau)
    return out


def gradient_v_sq(values, grid):
    out = np.zeros_like(values)
    for m in range(grid.d):
        g = np.gradient(values, grid.hv, axis=grid.d + m)
        out += g * g
    return out


def ledger_row(n, state, grid, source_l2):
    """The ledger row of ``state`` at step ``n``, in ``EnergyLedger.FIELDS`` order."""
    w = grid.cell_volume
    vals = state.values
    return (
        n,
        state.time,
        float(vals.sum() * w),
        float((vals**2).sum() * w),
        float(vals.min()),
        float(vals.max()),
        float(gradient_v_sq(vals, grid).sum() * w),
        source_l2,
    )


class Collision1D(_Collision1D):
    """The tridiagonal solve with A, B and s evaluated through ``field.a/b/s``
    on fresh node meshes at every assembly and ``dt * s`` formed at every step.
    Each assembly builds the bands in fresh (nx, nv) arrays and factorises
    them with ``dgttrf``; every step solves with ``dgttrs``."""

    def _assemble(self, t):
        g = self.grid
        x_mesh = np.repeat(g.x_axis, g.nv)[:, None]
        v_mesh = np.tile(g.v_axis, g.nx)[:, None]
        shape = (g.nx, g.nv)
        self._factorise(self.field.a(x_mesh, v_mesh, t)[..., 0, 0].reshape(shape),
                        self.field.b(x_mesh, v_mesh, t)[..., 0].reshape(shape))
        self._source = self.field.s(x_mesh, v_mesh, t).reshape(shape)

    def _factorise(self, a_cell, b_cell):
        """Factorise I - dt L for the node values of A and B, each (nx, nv)."""
        g = self.grid
        nx, nv, hv = g.nx, g.nv, g.hv
        a_face = 0.5 * (a_cell[:, :-1] + a_cell[:, 1:])
        a_right = np.zeros((nx, nv))
        a_left = np.zeros((nx, nv))
        a_right[:, :-1] = a_face
        a_left[:, 1:] = a_face
        # one-sided drift at the walls keeps constants in the kernel
        bp = np.maximum(b_cell, 0.0)
        bm = np.minimum(b_cell, 0.0)
        bp[:, -1] = 0.0
        bm[:, 0] = 0.0

        up = a_right / hv**2 + bp / hv
        lo = a_left / hv**2 - bm / hv
        di = -(a_right + a_left) / hv**2 - (bp - bm) / hv

        dt = self.dt
        dd = (1.0 - dt * di).ravel()
        up_full = -dt * up
        lo_full = -dt * lo
        up_full[:, -1] = 0.0
        lo_full[:, 0] = 0.0
        du = up_full.ravel()[:-1]
        dl = lo_full.ravel()[1:]
        dl_f, d_f, du_f, du2, ipiv, info = lapack.dgttrf(dl, dd, du)
        if info != 0:
            raise np.linalg.LinAlgError(f"collision matrix factorisation failed ({info})")
        self._factors = (dl_f, d_f, du_f, du2, ipiv)

    def apply(self, values, t):
        key = self.field.time_key(t)
        if key != self._key:
            self._assemble(t)
            self._key = key
        rhs = (values + self.dt * self._source).ravel()
        out, info = lapack.dgttrs(*self._factors, rhs)
        if info != 0:
            raise np.linalg.LinAlgError(f"collision solve failed ({info})")
        return out.reshape(values.shape)


class Collision2D(_Collision2D):
    """The d = 2 collision solve assembled by a loop over x-cells and
    velocity nodes, one sparse matrix per cell."""

    def _assemble(self, t):
        g = self.grid
        nv, hv = g.nv, g.hv
        vx, vy = np.meshgrid(g.v_axis, g.v_axis, indexing="ij")
        v_pts = np.stack([vx.ravel(), vy.ravel()], axis=-1)
        n_cells = g.nx * g.nx
        nvv = nv * nv
        self._lus = []
        self.matrices = []
        sources = np.empty((n_cells, nvv))

        x_cells = [
            (g.x_axis[i], g.x_axis[j]) for i in range(g.nx) for j in range(g.nx)
        ]
        for ci, (x1, x2) in enumerate(x_cells):
            x_pts = np.broadcast_to(np.array([x1, x2]), v_pts.shape)
            a = self.field.a(x_pts, v_pts, t).reshape(nv, nv, 2, 2)
            b = self.field.b(x_pts, v_pts, t).reshape(nv, nv, 2)
            sources[ci] = self.field.s(x_pts, v_pts, t).reshape(-1)

            rows: list[int] = []
            cols: list[int] = []
            vals: list[float] = []

            def idx(i: int, j: int) -> int:
                return i * nv + j

            def add(r: int, c: int, v: float) -> None:
                rows.append(r)
                cols.append(c)
                vals.append(float(v))

            inv_h2 = 1.0 / hv**2
            inv_4h2 = 1.0 / (4.0 * hv**2)
            for i in range(nv):
                for j in range(nv):
                    if i + 1 < nv:
                        r0, r1 = idx(i, j), idx(i + 1, j)
                        a11f = 0.5 * (a[i, j, 0, 0] + a[i + 1, j, 0, 0]) * inv_h2
                        add(r0, r1, a11f)
                        add(r0, r0, -a11f)
                        add(r1, r0, a11f)
                        add(r1, r1, -a11f)
                        a12f = 0.5 * (a[i, j, 0, 1] + a[i + 1, j, 0, 1]) * inv_4h2
                        for (ci, cj), w in (
                            ((i, j + 1), 1.0),
                            ((i + 1, j + 1), 1.0),
                            ((i, j - 1), -1.0),
                            ((i + 1, j - 1), -1.0),
                        ):
                            cj = min(max(cj, 0), nv - 1)
                            add(r0, idx(ci, cj), w * a12f)
                            add(r1, idx(ci, cj), -w * a12f)
                    if j + 1 < nv:
                        r0, r1 = idx(i, j), idx(i, j + 1)
                        a22f = 0.5 * (a[i, j, 1, 1] + a[i, j + 1, 1, 1]) * inv_h2
                        add(r0, r1, a22f)
                        add(r0, r0, -a22f)
                        add(r1, r0, a22f)
                        add(r1, r1, -a22f)
                        a21f = 0.5 * (a[i, j, 0, 1] + a[i, j + 1, 0, 1]) * inv_4h2
                        for (ci, cj), w in (
                            ((i + 1, j), 1.0),
                            ((i + 1, j + 1), 1.0),
                            ((i - 1, j), -1.0),
                            ((i - 1, j + 1), -1.0),
                        ):
                            ci = min(max(ci, 0), nv - 1)
                            add(r0, idx(ci, cj), w * a21f)
                            add(r1, idx(ci, cj), -w * a21f)
                    r = idx(i, j)
                    b1, b2 = b[i, j]
                    if b1 > 0 and i + 1 < nv:
                        add(r, idx(i + 1, j), b1 / hv)
                        add(r, r, -b1 / hv)
                    elif b1 < 0 and i - 1 >= 0:
                        add(r, idx(i - 1, j), -b1 / hv)
                        add(r, r, b1 / hv)
                    if b2 > 0 and j + 1 < nv:
                        add(r, idx(i, j + 1), b2 / hv)
                        add(r, r, -b2 / hv)
                    elif b2 < 0 and j - 1 >= 0:
                        add(r, idx(i, j - 1), -b2 / hv)
                        add(r, r, b2 / hv)

            lmat = csr_matrix((vals, (rows, cols)), shape=(nvv, nvv))
            eye = csr_matrix((np.ones(nvv), (np.arange(nvv), np.arange(nvv))), shape=(nvv, nvv))
            mat = (eye - self.dt * lmat).tocsc()
            self.matrices.append(mat)
            self._lus.append(splu(mat))
        self._sources = sources

    def apply(self, values, t):
        key = self.field.time_key(t)
        if key != self._key:
            self._assemble(t)
            self._key = key
        g = self.grid
        nvv = g.nv * g.nv
        work = values.reshape(g.nx * g.nx, nvv)
        out = np.empty_like(work)
        for ci in range(work.shape[0]):
            out[ci] = self._lus[ci].solve(work[ci] + self.dt * self._sources[ci])
        return out.reshape(values.shape)


def make_collision(cfg):
    cls = Collision1D if cfg.grid.d == 1 else Collision2D
    return cls(cfg.grid, cfg.field, cfg.dt)


def step(state, cfg, coll):
    half = 0.5 * cfg.dt
    t_mid = state.time + half
    vals = transport(state.values, cfg.grid, half)
    vals = coll.apply(vals, t_mid)
    vals = transport(vals, cfg.grid, half)
    return PhaseGridFunction(cfg.grid, vals, state.time + cfg.dt)


def snapshot_steps(cfg):
    """The steps the scheme stored before they had a closed form: step 0, every
    ``snapshot_stride``-th step, the final step, and each step whose time,
    accumulated by repeated ``+ dt``, is past t_end - snapshot_tail + 1e-12."""
    steps = [0]
    tail_start = cfg.t_end - cfg.snapshot_tail
    t = 0.0
    for n in range(1, cfg.n_steps + 1):
        t = t + cfg.dt
        if n % cfg.snapshot_stride == 0 or n == cfg.n_steps or t > tail_start + 1e-12:
            steps.append(n)
    return steps


def solve(cfg, f0):
    """The splitting scheme as it ran before the transport plan, the
    vectorised collision assembly and the preallocated snapshot array."""
    coll = make_collision(cfg)
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

    stored_steps = set(snapshot_steps(cfg))
    for n in range(1, n_steps + 1):
        state = step(state, cfg, coll)
        rows.append(ledger_row(n, state, grid, source_l2_at(state.time)))
        if n in stored_steps:
            times.append(state.time)
            stored.append(state.values.copy())

    return Trajectory(
        grid=grid,
        times=np.asarray(times),
        values=np.stack(stored),
        field=cfg.field,
        ledger=ledger_from_rows(rows),
    )


def kolmogorov_moments(t: float) -> tuple[float, float, float]:
    """(Var x, Cov(x, v), Var v) of the constant-diffusion flow at time t.

    Frozen against a 10^6-path Euler-Maruyama run of dv = sqrt(2) dW,
    dx = v dt (measured at t = 1: 0.66574, 1.00015, 2.00237).
    """
    return 2.0 * t**3 / 3.0, t**2, 2.0 * t


def kolmogorov_oracle(x, v, t: float, d: int = 1) -> np.ndarray:
    """Fundamental solution of df/dt + v . grad_x f = Lap_v f from a point mass.

    Per spatial dimension, (x, v) is jointly Gaussian with zero mean and
    covariance [[2t^3/3, t^2], [t^2, 2t]]; the density factorises over
    dimensions.  Arrays broadcast elementwise; for d > 1 the last axis of x
    and v must hold the components.
    """
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    var_x, cov, var_v = kolmogorov_moments(t)
    det = var_x * var_v - cov**2
    if d == 1 and (x.ndim == 0 or x.shape[-1:] != (1,)):
        comps = [(x, v)]
    else:
        if x.shape[-1] != d:
            raise ValueError(f"x must have trailing dimension {d}")
        comps = [(x[..., m], v[..., m]) for m in range(d)]
    out = 1.0
    for xc, vc in comps:
        q = (var_v * xc**2 - 2.0 * cov * xc * vc + var_x * vc**2) / det
        out = out * np.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(det))
    return out


def gaussian_exact_solution(
    x, v, t: float, var_x0: float, var_v0: float, mean_x: float = 0.0, mean_v: float = 0.0
):
    """Exact evolved Gaussian for A = I, B = 0, s = 0 initial data.

    With independent Gaussian initial data the solution stays Gaussian with
    Var x = var_x0 + t^2 var_v0 + 2t^3/3, Cov = t var_v0 + t^2,
    Var v = var_v0 + 2t; the mean follows the free flow.
    """
    var_x = var_x0 + t**2 * var_v0 + 2.0 * t**3 / 3.0
    cov = t * var_v0 + t**2
    var_v = var_v0 + 2.0 * t
    det = var_x * var_v - cov**2
    xc = np.asarray(x, dtype=float) - (mean_x + t * mean_v)
    vc = np.asarray(v, dtype=float) - mean_v
    q = (var_v * xc**2 - 2.0 * cov * xc * vc + var_x * vc**2) / det
    return np.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(det))


def gaussian_solution_spd(x, v, t: float, a, cov_x0, cov_v0, mean_x, mean_v, x_extent: float):
    """Exact solution for a constant SPD A, B = 0 and s = 0 from Gaussian data
    N(mean_x, cov_x0) x N(mean_v, cov_v0), periodic in x with period x_extent.

    (x, v) stays jointly Gaussian (Kolmogorov, Ann. Math. 1934): the mean
    follows the free flow, and the covariance blocks are
    Sxx = cov_x0 + t^2 cov_v0 + (2t^3/3) A, Sxv = t cov_v0 + t^2 A and
    Svv = cov_v0 + 2t A.  The density is summed over the 3^d nearest periodic
    images in x.  x and v hold the d components on their last axis.
    """
    a, sx0, sv0 = (np.asarray(m, dtype=float) for m in (a, cov_x0, cov_v0))
    d = a.shape[0]
    sxv = t * sv0 + t**2 * a
    cov = np.block([[sx0 + t**2 * sv0 + (2.0 * t**3 / 3.0) * a, sxv],
                    [sxv.T, sv0 + 2.0 * t * a]])
    prec = np.linalg.inv(cov)
    scale = 1.0 / math.sqrt((2.0 * math.pi) ** (2 * d) * np.linalg.det(cov))
    xc = np.asarray(x, dtype=float) - (np.asarray(mean_x) + t * np.asarray(mean_v))
    vc = np.asarray(v, dtype=float) - mean_v
    out = 0.0
    for image in itertools.product((-1.0, 0.0, 1.0), repeat=d):
        z = np.concatenate([xc + x_extent * np.asarray(image), vc], axis=-1)
        out = out + scale * np.exp(-0.5 * np.einsum("...i,ij,...j->...", z, prec, z))
    return out


def comparison_check(
    f0: PhaseGridFunction, g0: PhaseGridFunction, cfg: SolverConfig, tol: float = 1e-12
) -> tuple[bool, float]:
    """Run both initial states and verify ordering is preserved at all snapshots.

    Requires f0 <= g0 pointwise.  Returns (ok, worst violation); the solver's
    monotone scheme (linear-interpolation semi-Lagrangian transport with the
    M-matrix implicit collision step, d = 1) must keep the violation at
    roundoff.
    """
    if np.any(f0.values > g0.values):
        raise ValueError("comparison_check requires f0 <= g0 pointwise")
    traj_f = fast_solve(cfg, f0)
    traj_g = fast_solve(cfg, g0)
    violation = float(np.max(traj_f.values - traj_g.values))
    scale = max(1.0, float(np.abs(g0.values).max()))
    return violation <= tol * scale, violation


def dilated(field: CoefficientField, r: float) -> CoefficientField:
    """``field`` seen through the kinetic dilation delta_r(x, v, t) = (r^3 x, r v, r^2 t):
    A'(z) = A(delta_{1/r} z), B' = B / r and s' = s / r^2, with the declared bounds
    scaled alike, ``time_key`` composed with delta_{1/r} and ``nodes_fn`` dropped.

    If f solves the equation with (A, B, s), then f o delta_{1/r} solves it with
    (A', B', s'); for r a power of 2 every operation of the scheme on the dilated
    grid, step and field is the original one times an exact power of 2.
    """
    def pulled(fn, factor):
        return lambda x, v, t: factor * fn(x / r**3, v / r, t / r**2)

    key = field.time_key
    return replace(field, a_fn=pulled(field.a_fn, 1.0), b_fn=pulled(field.b_fn, 1.0 / r),
                   s_fn=pulled(field.s_fn, 1.0 / r**2), nodes_fn=None,
                   b_bound=field.b_bound / r, s_bound=field.s_bound / r**2,
                   s_min=field.s_min / r**2, time_key=lambda t: key(t / r**2))
