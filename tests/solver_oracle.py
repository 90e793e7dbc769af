"""The solver's slow paths, kept as test oracles for the fast ones.

``advect_axis`` recomputes the semi-Lagrangian gather on every call and
indexes through ``moveaxis``; ``gradient_v_sq`` goes through
``np.gradient``; ``Collision1D`` builds the bands in fresh arrays and
factorises them with ``dgttrf`` at every assembly, then solves every step
with ``dgttrs``; ``Collision2D`` assembles the d = 2 stencil node by node
into dense matrices and factorises each cell's band with ``dgbtrf``;
both collision oracles evaluate A, B and s through ``field.a/b/s`` at every
assembly (never through the node-bound evaluators) and add ``dt * s`` at
every step; ``solve`` reduces one ledger row per state and stacks a list
of snapshot copies.  Each is the arithmetic the fast path must reproduce
bitwise, for smooth fields up to the rounding of the node evaluators.
``SparseCollision2D``, the d = 2 step as it was before the band layout (CSC
matrices and SuperLU), bounds how far the band LU moved the d = 2 bits.

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
from scipy.sparse import csc_matrix, csr_matrix, identity
from scipy.sparse.linalg import splu

from kfplab.fields import CoefficientField
from kfplab import solver as solver_mod
from kfplab.solver import (SolverConfig, _Collision1D, _Collision2D, _first_equal_cells,
                           solve as fast_solve)
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


def ledger_row(n, state, grid):
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
    velocity nodes: each cell's entries are added one by one into a dense
    matrix, in the order the loop reaches them, and I - dt L is copied into
    LAPACK's band layout (``bands``), then factorised by ``dgbtrf`` and
    solved by ``dgbtrs`` one cell at a time."""

    def _assemble(self, t):
        g = self.grid
        nv, hv = g.nv, g.hv
        vx, vy = np.meshgrid(g.v_axis, g.v_axis, indexing="ij")
        v_pts = np.stack([vx.ravel(), vy.ravel()], axis=-1)
        n_cells = g.nx * g.nx
        nvv = nv * nv
        kl = nv + 1
        self._factors = []
        self.bands = []
        sources = np.empty((n_cells, nvv))

        x_cells = [
            (g.x_axis[i], g.x_axis[j]) for i in range(g.nx) for j in range(g.nx)
        ]
        for ci, (x1, x2) in enumerate(x_cells):
            x_pts = np.broadcast_to(np.array([x1, x2]), v_pts.shape)
            a = self.field.a(x_pts, v_pts, t).reshape(nv, nv, 2, 2)
            b = self.field.b(x_pts, v_pts, t).reshape(nv, nv, 2)
            sources[ci] = self.field.s(x_pts, v_pts, t).reshape(-1)
            lmat = np.zeros((nvv, nvv))

            def idx(i: int, j: int) -> int:
                return i * nv + j

            def add(r: int, c: int, v: float) -> None:
                lmat[r, c] += v

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

            mat = np.eye(nvv) - self.dt * lmat
            band = np.zeros((3 * kl + 1, nvv))
            for c in range(nvv):
                for r in range(max(0, c - kl), min(nvv, c + kl + 1)):
                    band[2 * kl + r - c, c] = mat[r, c]
            self.bands.append(band)
            lu, ipiv, info = lapack.dgbtrf(band, kl, kl)
            if info != 0:
                raise np.linalg.LinAlgError(f"collision matrix factorisation failed ({info})")
            self._factors.append((lu, ipiv))
        self._sources = sources

    def apply(self, values, t):
        key = self.field.time_key(t)
        if key != self._key:
            self._assemble(t)
            self._key = key
        g = self.grid
        kl = g.nv + 1
        work = values.reshape(g.nx * g.nx, g.nv * g.nv)
        out = np.empty_like(work)
        for ci, (lu, ipiv) in enumerate(self._factors):
            out[ci], info = lapack.dgbtrs(lu, kl, kl, work[ci] + self.dt * self._sources[ci], ipiv)
            if info != 0:
                raise np.linalg.LinAlgError(f"collision solve failed ({info})")
        return out.reshape(values.shape)


def cell_matrices_csc(a, b, hv, dt):
    """I - dt L of every x-cell in ``a`` (n_cells, nv, nv, 2, 2) and ``b``
    (n_cells, nv, nv, 2) as CSC matrices, from the 28 stencil slots per node
    that ``solver._cell_bands_2d`` takes, summed by scipy's COO to CSR
    conversion: the assembly the band layout replaced."""
    n_cells, nv = a.shape[:2]
    nvv = nv * nv
    pos = np.stack(np.meshgrid(np.arange(nv), np.arange(nv), indexing="ij"))
    node = pos[0] * nv + pos[1]
    rows = np.empty((nv, nv, 28), dtype=np.intp)
    cols = np.empty((n_cells, nv, nv, 28), dtype=np.intp)
    vals = np.zeros((n_cells, nv, nv, 28))
    valid = np.zeros((n_cells, nv, nv, 28), dtype=bool)
    sign = np.array([1.0, -1.0] * 4 + [-1.0, 1.0] * 2)
    for m, stride in ((0, nv), (1, 1)):
        lo, hi = (np.s_[:, :-1], np.s_[:, 1:]) if m == 0 else (np.s_[:, :, :-1], np.s_[:, :, 1:])
        diff, cross = np.zeros((2, n_cells, nv, nv))
        diff[lo] = 0.5 * (a[..., m, m][lo] + a[..., m, m][hi]) * (1.0 / hv**2)
        cross[lo] = 0.5 * (a[..., 0, 1][lo] + a[..., 0, 1][hi]) * (1.0 / (4.0 * hv**2))
        r0, r1 = node, node + stride
        nbrs = []
        for dm, do in ((0, 1), (1, 1), (0, -1), (1, -1)):
            p = pos.copy()
            p[m] += dm
            p[1 - m] = np.clip(p[1 - m] + do, 0, nv - 1)
            nbrs += [p[0] * nv + p[1]] * 2
        k = slice(12 * m, 12 * m + 12)
        rows[..., k] = np.stack([r0, r0, r1, r1] + [r0, r1] * 4, axis=-1)
        cols[..., k] = np.stack([r1, r0, r0, r1] + nbrs, axis=-1)
        vals[..., k] = np.stack([diff] * 4 + [cross] * 8, axis=-1) * sign
        valid[..., k] = (pos[m] + 1 < nv)[..., None]

        up = (b[..., m] > 0) & (pos[m] + 1 < nv)
        down = (b[..., m] < 0) & (pos[m] >= 1)
        first = np.where(up, b[..., m] / hv, -b[..., m] / hv)
        k = slice(24 + 2 * m, 26 + 2 * m)
        rows[..., k] = node[..., None]
        cols[..., k] = np.stack([np.where(up, r1, node - stride), np.broadcast_to(node, up.shape)], -1)
        vals[..., k] = np.stack([first, -first], axis=-1)
        valid[..., k] = (up | down)[..., None]

    offset = (np.arange(n_cells) * nvv)[:, None, None, None]
    n = n_cells * nvv
    lmat = csr_matrix(
        (vals[valid], ((rows + offset)[valid], (cols + offset)[valid])), shape=(n, n)
    )
    mat = (identity(n, format="csr") - dt * lmat).tocsc()
    ptr = mat.indptr
    blocks = []
    for c in range(n_cells):
        lo, hi = ptr[c * nvv], ptr[(c + 1) * nvv]
        blocks.append(csc_matrix(
            (mat.data[lo:hi], mat.indices[lo:hi] - c * nvv, ptr[c * nvv:(c + 1) * nvv + 1] - lo),
            shape=(nvv, nvv),
        ))
    return blocks


class SparseCollision2D(_Collision2D):
    """The d = 2 collision step before the band layout: the vectorised
    assembly as CSC matrices (``cell_matrices_csc``) and one SuperLU per
    distinct cell matrix, shared as the fast path shares its factors."""

    def _assemble(self, t):
        a, b = self._cell_coeffs(t)
        first = _first_equal_cells(a, b)
        cells = sorted(set(first))
        chunk = max(1, solver_mod._CHUNK_NODES // self.grid.nv**2)
        blocks = [block for c in range(0, len(cells), chunk) for block in cell_matrices_csc(
            a[cells[c:c + chunk]], b[cells[c:c + chunk]], self.grid.hv, self.dt)]
        lus = dict(zip(cells, map(splu, blocks)))
        self._lus = [lus[c] for c in first]

    def _solve(self):
        rhs = self._rhs
        for ci, lu in enumerate(self._lus):
            rhs[ci] = lu.solve(rhs[ci])
        return rhs


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

    state = PhaseGridFunction(grid, f0.values, 0.0)
    rows = [ledger_row(0, state, grid)]
    times = [0.0]
    stored = [state.values.copy()]

    stored_steps = set(snapshot_steps(cfg))
    for n in range(1, n_steps + 1):
        state = step(state, cfg, coll)
        rows.append(ledger_row(n, state, grid))
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
