"""Operator-split solver for the kinetic equation

    df/dt + v . grad_x f = div_v (A grad_v f) + B . grad_v f + s

on a periodic-in-x box with no-flux velocity walls.

The splitting pairs the skew-symmetric transport with the velocity-elliptic
collision operator: each Strang step does a transport half-step, an implicit
finite-volume collision step, and a second transport half-step.  The
linear-interpolation semi-Lagrangian transport and the implicit M-matrix
collision solve are monotone in one velocity dimension, which yields discrete
positivity and a comparison principle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.sparse import csc_matrix, csr_matrix, identity
from scipy.sparse.linalg import splu

from .fields import CoefficientField
from .trajectory import (
    EnergyLedger,
    LedgerRow,
    PhaseGrid,
    PhaseGridFunction,
    Trajectory,
    gradient_v_sq,
)

_CHUNK_NODES = 2**14   # d = 2 assembly works on cells of at most this many nodes at once
_BLOCK_BYTES = 2**18   # the ledger reduces blocks of states this large, which stay in L2


class SolverFailure(ArithmeticError):
    """The scheme produced a non-finite value; the message names the step."""


@dataclass(frozen=True)
class SolverConfig:
    """Grid, step size and coefficient data of one run."""

    grid: PhaseGrid
    dt: float
    t_end: float
    field: CoefficientField
    snapshot_stride: int = 1
    snapshot_tail: float = 0.0   # additionally keep every step in (t_end - tail, t_end]

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.field.d != self.grid.d:
            raise ValueError("field dimension does not match grid")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        steps = self.t_end / self.dt
        if not math.isfinite(steps):
            raise ValueError(f"t_end / dt = {steps!r} is not a finite number of steps")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"t_end / dt = {steps!r} is not a whole number of steps")
        if self.grid.d > 2:
            raise NotImplementedError("solver supports d = 1 and d = 2")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


class _TransportPlan:
    """The transport half-step of one run, v . grad_x over ``dtau``, with its
    gather and its buffers built once.

    Along each x-axis in turn, linear-interpolation semi-Lagrangian transport
    pulls every node from its two upstream neighbours,
    out = (1 - a) f[i0] + a f[i1].  It gathers f[i0] through flat indices into
    ``values.ravel()``; as i1 = i0 - 1 and the shift depends on v only, f[i1]
    of row i is f[i0] of row i - 1.  The weights are stored at the full shape
    of the gathered array.  Each axis works in the layout that puts (x-axis,
    paired v-axis) first and hands back a transposed view of it.

    The axes write into two buffers in turn, so a result stays valid until
    the next ``apply``, which may take it as its input.
    """

    def __init__(self, grid: PhaseGrid, dtau: float):
        d = grid.d
        c = grid.v_axis * dtau / grid.hx
        shift = np.floor(c).astype(int)
        a = c - shift
        i0 = (np.arange(grid.nx)[:, None] - shift[None, :]) % grid.nx
        cols = np.arange(grid.nv)[None, :]
        # every axis's moved layout has this shape: (x-axis, paired v-axis, rest)
        shape = (grid.nx, grid.nv) + (grid.nx,) * (d - 1) + (grid.nv,) * (d - 1)
        bcast = (grid.nv,) + (1,) * (2 * d - 2)
        self._weights = tuple(np.broadcast_to(w.reshape(bcast), shape).copy()
                              for w in (1.0 - a, a))
        self._far = np.empty(shape)
        self._buffers = [np.empty(shape) for _ in range(2)]
        node = np.arange(math.prod(grid.shape)).reshape(grid.shape)
        self._axes = []
        for axis in range(d):
            pair = (axis, d + axis)
            fwd = pair + tuple(k for k in range(2 * d) if k not in pair)
            back = tuple(int(k) for k in np.argsort(fwd))
            self._axes.append((back, node.transpose(fwd)[i0, cols]))

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = values
        w_near, w_far = self._weights
        for back, sources in self._axes:
            moved = self._buffers[0]
            self._buffers.reverse()
            # every index is in range: "clip" changes none, and unlike
            # "raise" it writes into the buffer without an extra copy
            out.ravel().take(sources, out=moved, mode="clip")
            np.multiply(moved[:-1], w_far[1:], out=self._far[1:])
            np.multiply(moved[-1], w_far[0], out=self._far[0])
            moved *= w_near
            moved += self._far
            out = moved.transpose(back)
        return out


class _Collision:
    """Implicit finite-volume collision solve, one block per x-cell.

    ``coeffs`` evaluates the field at the grid nodes, in the grid's order.
    The operator is reassembled whenever ``field.time_key`` changes.
    ``apply`` adds dt * s to the data in a right-hand-side buffer of shape
    (cells, nodes per cell), allocated once per run, solves there and returns
    it, so its result stays valid until the next ``apply``.  A field without
    source adds 0.0, which still turns -0.0 into +0.0, as adding
    dt * s(x, v, t) = +0.0 did.
    """

    def __init__(self, grid: PhaseGrid, field: CoefficientField, dt: float):
        self.grid = grid
        self.field = field
        self.dt = dt
        self._key: object = object()
        self._dt_source: np.ndarray | float = 0.0
        self._rhs = np.empty((grid.nx**grid.d, grid.nv**grid.d))
        self.coeffs = field.at_nodes(*(mesh.reshape(-1, grid.d) for mesh in grid.meshes()))

    def apply(self, values: np.ndarray, t: float) -> np.ndarray:
        key = self.field.time_key(t)
        if key != self._key:
            if self.field.s_bound != 0:
                self._dt_source = self.dt * self.coeffs.s(t).reshape(self.grid.shape)
            self._assemble(t)
            self._key = key
        np.add(values, self._dt_source, out=self._rhs.reshape(values.shape))
        return self._solve().reshape(values.shape)


class _Collision1D(_Collision):
    """The d = 1 collision step: one tridiagonal LAPACK factorisation for all
    x-cells, solved by ``dgttrs`` in the right-hand-side buffer."""

    def _assemble(self, t: float) -> None:
        shape = self._rhs.shape
        self._factorise(self.coeffs.a(t)[..., 0, 0].reshape(shape),
                        self.coeffs.b(t)[..., 0].reshape(shape))

    def _factorise(self, a_cell: np.ndarray, b_cell: np.ndarray) -> None:
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

    def _solve(self) -> np.ndarray:
        out, info = lapack.dgttrs(*self._factors, self._rhs.ravel(), overwrite_b=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"collision solve failed ({info})")
        return out


def _cell_matrices_2d(a: np.ndarray, b: np.ndarray, hv: float, dt: float) -> list:
    """I - dt L of every x-cell in ``a`` (n_cells, nv, nv, 2, 2) and ``b``
    (n_cells, nv, nv, 2), as CSC matrices.

    Per node and axis m, the face to the next node along v_m gives 4 diffusion
    and 8 cross-diffusion entries (+/- to its two cells, so mass telescopes;
    no flux through the walls), then each axis gives 2 drift entries,
    differenced toward the neighbour B_m points at and dropped where that
    neighbour is past a wall: (n_cells, nv, nv, 28) slots whose valid ones, in
    C order, are the entries in assembly order.
    """
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
    # I - dt L of all cells in one construction; each diagonal block gets
    # its own LU, as one block-diagonal LU solves to different bits
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


class _Collision2D(_Collision):
    """The d = 2 collision step: one sparse LU per x-cell.

    Cross-diffusion terms use the symmetric face-averaged stencil; the
    M-matrix (hence positivity) guarantee only holds for moderate anisotropy.
    """

    def _assemble(self, t: float) -> None:
        self._lus = []   # two live sets of factors would raise peak memory
        self._lus = [splu(block) for block in self._cell_matrices(t)]

    def _cell_matrices(self, t: float) -> list:
        """I - dt L of every x-cell as a CSC matrix."""
        nv, nvv, n_cells = self.grid.nv, self.grid.nv**2, self.grid.nx**2
        a = self.coeffs.a(t).reshape(n_cells, nv, nv, 2, 2)
        b = self.coeffs.b(t).reshape(n_cells, nv, nv, 2)
        chunk = max(1, _CHUNK_NODES // nvv)
        return [block for c in range(0, n_cells, chunk) for block in _cell_matrices_2d(
            a[c:c + chunk], b[c:c + chunk], self.grid.hv, self.dt)]

    def _solve(self) -> np.ndarray:
        rhs = self._rhs
        for ci, lu in enumerate(self._lus):
            rhs[ci] = lu.solve(rhs[ci])
        return rhs


def _make_collision(cfg: SolverConfig):
    cls = _Collision1D if cfg.grid.d == 1 else _Collision2D
    return cls(cfg.grid, cfg.field, cfg.dt)


def _make_transport(cfg: SolverConfig) -> _TransportPlan:
    return _TransportPlan(cfg.grid, 0.5 * cfg.dt)


def step(
    state: PhaseGridFunction, cfg: SolverConfig, _collision=None, _transport=None
) -> PhaseGridFunction:
    """One Strang step: transport(dt/2) o implicit collision(dt) o transport(dt/2).

    With the run's own ``_transport`` plan, the new state's values may be the
    plan's buffer, valid until the plan's next half-step.
    """
    if state.grid != cfg.grid:
        raise ValueError("state grid does not match solver config")
    coll = _collision if _collision is not None else _make_collision(cfg)
    transport = _transport if _transport is not None else _make_transport(cfg)
    t_mid = state.time + 0.5 * cfg.dt
    vals = transport.apply(state.values)
    vals = coll.apply(vals, t_mid)
    vals = transport.apply(vals)
    return PhaseGridFunction(cfg.grid, vals, state.time + cfg.dt)


def _stack_like(values: np.ndarray, count: int) -> np.ndarray:
    """An uninitialised (count, *values.shape) array whose every entry is laid
    out in memory as ``values``, a dense array with positive strides, is."""
    order = sorted(range(values.ndim), key=lambda k: -values.strides[k])
    stack = np.empty((count,) + tuple(values.shape[k] for k in order))
    return stack.transpose((0,) + tuple(1 + order.index(k) for k in range(values.ndim)))


def _ledger_rows(first: int, times: list[float], block: np.ndarray, grid: PhaseGrid,
                 source_l2_at) -> list[LedgerRow]:
    """The ledger rows of the states ``block[k]`` at steps ``first + k``.

    Each column is one reduction over the block's trailing axes, which adds
    every state in its own memory order, as a reduction of that state alone
    does.  A non-finite value shows in fmin or fmax, as NaN and +-inf pass
    through min and max; the first row holding one is a SolverFailure.
    """
    w = grid.cell_volume
    axes = tuple(range(1, block.ndim))
    fmin, fmax = block.min(axis=axes), block.max(axis=axes)
    bad = ~(np.isfinite(fmin) & np.isfinite(fmax))
    if bad.any():
        k = int(np.argmax(bad))
        raise SolverFailure(f"non-finite value at step {first + k} (t = {times[k]!r})")
    columns = (
        (block.sum(axis=axes) * w).tolist(),
        ((block**2).sum(axis=axes) * w).tolist(),
        fmin.tolist(),
        fmax.tolist(),
        (gradient_v_sq(block, grid).sum(axis=axes) * w).tolist(),
    )
    return [LedgerRow(first + k, t, *row, source_l2_at(t))
            for k, (t, *row) in enumerate(zip(times, *columns))]


def _snapshot_steps(cfg: SolverConfig) -> tuple[list[int], list[float]]:
    """The steps ``solve`` stores and their times, accumulated by repeated
    ``+ dt`` exactly as the steps accumulate them."""
    steps, times = [0], [0.0]
    tail_start = cfg.t_end - cfg.snapshot_tail
    n_steps = cfg.n_steps
    t = 0.0
    for n in range(1, n_steps + 1):
        t = t + cfg.dt
        if n % cfg.snapshot_stride == 0 or n == n_steps or t > tail_start + 1e-12:
            steps.append(n)
            times.append(t)
    return steps, times


def solve(cfg: SolverConfig, f0: PhaseGridFunction) -> Trajectory:
    """Run the splitting scheme and return the stored snapshots plus ledger.

    Snapshots are stored at step 0, every ``snapshot_stride`` steps, at the
    final step, and at every step within the trailing ``snapshot_tail`` window.
    Each step's state is copied into a block of about ``_BLOCK_BYTES`` that
    keeps the state's memory layout, and the ledger reduces a full block at
    once.  The first ledger row with a non-finite value raises
    SolverFailure, which names its step.
    """
    if f0.grid != cfg.grid:
        raise ValueError("initial state grid does not match solver config")
    coll = _make_collision(cfg)
    transport = _make_transport(cfg)
    grid = cfg.grid
    state = PhaseGridFunction(grid, f0.values, 0.0)

    src_cache: dict = {}

    def source_l2_at(t: float) -> float:
        if cfg.field.s_bound == 0:
            return 0.0
        key = cfg.field.time_key(t)
        if key not in src_cache:
            s = coll.coeffs.s(t).reshape(grid.shape)
            src_cache[key] = float((s**2).sum() * grid.cell_volume)
        return src_cache[key]

    stored_steps, times = _snapshot_steps(cfg)
    slot = {n: k for k, n in enumerate(stored_steps)}
    values = np.empty((len(times),) + grid.shape)
    values[0] = state.values
    rows = _ledger_rows(0, [state.time], state.values[None], grid, source_l2_at)

    block_size = max(1, _BLOCK_BYTES // state.values.nbytes)
    block = None
    block_times: list[float] = []
    for n in range(1, cfg.n_steps + 1):
        state = step(state, cfg, _collision=coll, _transport=transport)
        if block is None:   # every step's state has the first one's layout
            block = _stack_like(state.values, block_size)
        block[len(block_times)] = state.values
        block_times.append(state.time)
        if n in slot:
            values[slot[n]] = state.values
        if len(block_times) == len(block) or n == cfg.n_steps:
            rows += _ledger_rows(n + 1 - len(block_times), block_times,
                                 block[:len(block_times)], grid, source_l2_at)
            block_times = []

    return Trajectory(
        grid=grid,
        times=np.asarray(times),
        values=values,
        field=cfg.field,
        ledger=EnergyLedger(tuple(rows)),
    )
