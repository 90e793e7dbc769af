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

import functools
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fields import CoefficientField
from .trajectory import EnergyLedger, PhaseGrid, PhaseGridFunction, Trajectory

_CHUNK_NODES = 2**14   # d = 2 assembly works on cells of at most this many nodes at once
_BLOCK_BYTES = 2**18   # the ledger reduces blocks of states this large, which stay in L2


class SolverFailure(ArithmeticError):
    """The scheme produced a non-finite value; the message names the step."""


def _whole(q: float) -> int | float:
    """round(q) where it is within 1e-9 relative of q, else q itself: t_end / dt
    and snapshot_tail / dt count steps up to the rounding of the division."""
    if math.isfinite(q) and abs(q - round(q)) <= 1e-9 * q:
        return round(q)
    return q


@dataclass(frozen=True)
class SolverConfig:
    """Grid, step size and coefficient data of one run.

    ``solve`` stores step 0, every ``snapshot_stride``-th step, the final step
    and the tail: every step n with n_steps - n < snapshot_tail / dt, where the
    quotient counts whole steps as t_end / dt does (``_whole``).  Which steps
    these are depends on step indices only, so the kinetic dilation, which
    scales dt, t_end and snapshot_tail alike, leaves them unchanged.
    """

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
        if not self.snapshot_tail >= 0:
            raise ValueError(f"snapshot_tail must be >= 0, got {self.snapshot_tail!r}")
        steps = self.t_end / self.dt
        if not math.isfinite(steps):
            raise ValueError(f"t_end / dt = {steps!r} is not a finite number of steps")
        if not isinstance(_whole(steps), int):
            raise ValueError(f"t_end / dt = {steps!r} is not a whole number of steps")
        if self.grid.d > 2:
            raise NotImplementedError("solver supports d = 1 and d = 2")

    @property
    def n_steps(self) -> int:
        return _whole(self.t_end / self.dt)

    def _tail_start(self) -> int:
        """The first step of the stored tail, which holds at least the final step."""
        n, tail = self.n_steps, _whole(self.snapshot_tail / self.dt)
        return 0 if tail > n else n + 1 - max(1, math.ceil(tail))

    def _stored_steps(self) -> np.ndarray:
        """The steps ``solve`` stores, in order: the strided ones before the tail, then the tail."""
        start = self._tail_start()
        return np.concatenate([np.arange(0, start, min(self.snapshot_stride, start + 1)),
                               np.arange(start, self.n_steps + 1)])

    @property
    def stack_bytes(self) -> int:
        """Bytes of the snapshot stack that ``solve`` stores, known before it allocates."""
        start = self._tail_start()
        count = -(-start // self.snapshot_stride) + self.n_steps + 1 - start   # strided, then tail
        return count * math.prod(self.grid.shape) * np.dtype(float).itemsize


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
    ``apply`` adds dt * s, formed in a buffer of the run at each reassembly,
    to the data in a right-hand-side buffer of shape (cells, nodes per cell),
    also allocated once per run, solves there and returns it, so its result
    stays valid until the next ``apply``.  A field without source adds 0.0,
    which still turns -0.0 into +0.0, as adding dt * s(x, v, t) = +0.0 did.
    """

    def __init__(self, grid: PhaseGrid, field: CoefficientField, dt: float):
        self.grid = grid
        self.field = field
        self.dt = dt
        self._key: object = object()
        self._dt_source: np.ndarray | float = np.empty(grid.shape) if field.s_bound != 0 else 0.0
        self._rhs = np.empty((grid.nx**grid.d, grid.nv**grid.d))
        self.coeffs = field.at_nodes(*(mesh.reshape(-1, grid.d) for mesh in grid.meshes()))

    def apply(self, values: np.ndarray, t: float) -> np.ndarray:
        key = self.field.time_key(t)
        if key != self._key:
            if self.field.s_bound != 0:
                np.multiply(self.dt, self.coeffs.s(t).reshape(self.grid.shape),
                            out=self._dt_source)
            self._assemble(t)
            self._key = key
        np.add(values, self._dt_source, out=self._rhs.reshape(values.shape))
        return self._solve().reshape(values.shape)


@functools.cache
def _load_flapack():
    """scipy's compiled LAPACK module, ``scipy.linalg._flapack``, loaded from
    its file without running the ``scipy.linalg`` package.

    The collision steps need five of its routines.  ``from scipy.linalg
    import lapack`` would import the whole package for them: 308 modules,
    26 MB of RSS and 0.19-0.26 s after ``import kfplab.solver`` (one BLAS
    thread, 2 vCPUs), where the extension module alone adds 2.5 MB and 4-6 ms.
    It is loaded under its full name, then dropped from ``sys.modules`` and
    cached here, so a later ``import scipy.linalg`` loads it as a submodule
    and sets the package attribute; CPython rebuilds a single-phase extension
    module from its first load's namespace, so the routines are those bound here.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    folder = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"no compiled _flapack module in {folder}", name=name)
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    sys.modules.pop(name, None)   # loading put it there
    return module


class _Collision1D(_Collision):
    """The d = 1 collision step: the three bands of I - dt L for all x-cells
    in one tridiagonal system of the nodes in grid order.

    The bands are built in buffers allocated once per run.  ``_face`` holds
    the face averages of A behind a leading zero: the right face of node k is
    ``_face[k + 1]``, its left face ``_face[k]``, and the zero at each cell's
    top wall is the next node's left face.  A field without drift
    (``b_bound == 0``) skips B and its band updates, which would add or
    subtract +0.0 to bands that hold no -0.0.  A step that reassembled solves
    with LAPACK's ``dgtsv`` on a copy of the bands, as it factorises and
    substitutes in one pass; that beats ``dgttrf`` + ``dgttrs`` on the bands
    in place (ROADMAP, State table).  The first later step with the same
    ``time_key`` factorises the kept bands once with ``dgttrf``; every step
    after that solves by ``dgttrs``.  ``dgtsv`` and ``dgttrs`` write the
    solution into the right-hand-side buffer.  LAPACK does not promise that
    ``dgtsv`` gives the bits of ``dgttrf`` + ``dgttrs``; the build the suite
    runs on does (``test_one_pass_solve_is_the_factorise_then_solve``).  The
    three routines come from ``_load_flapack``, not from the
    ``scipy.linalg`` package.
    """

    def __init__(self, grid: PhaseGrid, field: CoefficientField, dt: float):
        flapack = _load_flapack()   # bound once per run, off the per-step path
        super().__init__(grid, field, dt)
        self._dgtsv, self._dgttrf, self._dgttrs = flapack.dgtsv, flapack.dgttrf, flapack.dgttrs
        n = self._rhs.size
        self._face = np.zeros(n + 1)
        self._bands = np.empty((3, n))   # lower, diagonal, upper: node k's row at k
        self._work = np.empty((3, n))    # the assembly's scratch, then the bands dgtsv overwrites
        self._factors: tuple | None = None
        self._reassembled = False

    def _assemble(self, t: float) -> None:
        nv, hv, dt = self.grid.nv, self.grid.hv, self.dt
        a = self.coeffs.a(t)[..., 0, 0].reshape(-1)
        right, left = self._face[1:], self._face[:-1]
        lo, di, up = self._bands
        np.add(a[:-1], a[1:], out=right[:-1])
        right *= 0.5
        right[nv - 1::nv] = 0.0

        # the rows of I - dt L: upper -dt (A_right / hv^2 + b+ / hv), lower
        # -dt (A_left / hv^2 - b- / hv), diagonal
        # 1 + dt ((A_right + A_left) / hv^2 + (b+ - b-) / hv)
        np.divide(right, hv**2, out=up)
        np.divide(left, hv**2, out=lo)
        np.add(right, left, out=di)
        di /= -hv**2
        if self.field.b_bound != 0:
            # one-sided drift at the walls keeps constants in the kernel
            b = self.coeffs.b(t)[..., 0].reshape(-1)
            bp, bm, tmp = self._work
            np.maximum(b, 0.0, out=bp)
            np.minimum(b, 0.0, out=bm)
            bp[nv - 1::nv] = 0.0
            bm[::nv] = 0.0
            up += np.divide(bp, hv, out=tmp)
            lo -= np.divide(bm, hv, out=tmp)
            di -= np.divide(np.subtract(bp, bm, out=tmp), hv, out=tmp)
        up *= -dt
        up[nv - 1::nv] = 0.0
        lo *= -dt
        lo[::nv] = 0.0
        di *= dt
        np.subtract(1.0, di, out=di)
        self._factors = None
        self._reassembled = True

    def _solve(self) -> np.ndarray:
        rhs = self._rhs.ravel()
        if self._reassembled:
            self._reassembled = False
            np.copyto(self._work, self._bands)
            lo, di, up = self._work
            *_, out, info = self._dgtsv(lo[1:], di, up[:-1], rhs, overwrite_dl=True,
                                        overwrite_d=True, overwrite_du=True, overwrite_b=True)
            if info != 0:
                raise np.linalg.LinAlgError(f"collision matrix factorisation failed ({info})")
            return out
        if self._factors is None:
            lo, di, up = self._bands
            *factors, info = self._dgttrf(lo[1:], di, up[:-1], overwrite_dl=True,
                                          overwrite_d=True, overwrite_du=True)
            if info != 0:
                raise np.linalg.LinAlgError(f"collision matrix factorisation failed ({info})")
            self._factors = tuple(factors)
        out, info = self._dgttrs(*self._factors, rhs, overwrite_b=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"collision solve failed ({info})")
        return out


def _cell_bands_2d(a: np.ndarray, b: np.ndarray, hv: float, dt: float, out: np.ndarray) -> None:
    """I - dt L of every x-cell in ``a`` (n_cells, nv, nv, 2, 2) and ``b``
    (n_cells, nv, nv, 2), written into ``out`` (n_cells, nv^2, 3 kl + 1) so
    that ``out[c].T`` is cell c's band for ``dgbtrf``: row r, column k at
    ``out[c, k, 2 kl + r - k]``, the first kl rows left for the fill.

    Per node and axis m, the face to the next node along v_m gives 4 diffusion
    and 8 cross-diffusion entries (+/- to its two cells, so mass telescopes;
    no flux through the walls), then each axis gives 2 drift entries,
    differenced toward the neighbour B_m points at and dropped where that
    neighbour is past a wall: (n_cells, nv, nv, 28) slots whose valid ones, in
    C order (node-major, slot-minor), are the entries in assembly order.
    ``bincount`` sums them in that order from 0.0, as the node loop does;
    scipy's COO to CSR conversion sums duplicates after an unstable sort, in
    an implementation-defined order (up to 1.8e-15 apart here).
    """
    n_cells, nv = a.shape[:2]
    nvv = nv * nv
    ldab = out.shape[-1]
    kl = (ldab - 1) // 3
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

    at = (np.arange(n_cells)[:, None, None, None] * nvv + cols) * ldab + (2 * kl + rows - cols)
    lmat = np.bincount(at[valid], vals[valid], minlength=out.size).reshape(out.shape)
    lmat *= dt
    np.subtract(np.arange(ldab) == 2 * kl, lmat, out=out)


def _first_equal_cells(a: np.ndarray, b: np.ndarray) -> list[int]:
    """For each cell (first axis) of ``a`` and ``b``, the first cell whose
    rows are the same bytes, so -0.0 and +0.0 differ."""
    first: dict[bytes, int] = {}
    return [first.setdefault(a[c].tobytes() + b[c].tobytes(), c) for c in range(len(a))]


class _Collision2D(_Collision):
    """The d = 2 collision step: one banded LU per distinct cell matrix.

    x-cells whose node values of A and B are the same bytes have the same
    matrix, so they share one LU; the source enters the right-hand side only.
    Each distinct I - dt L is built in LAPACK's band layout with kl = ku =
    nv + 1, the widest stencil offset (a diagonal neighbour), and factorised
    there by ``dgbtrf``: nv^2 (3 kl + 1) doubles per LU.  ``_groups`` holds
    each LU with its cells, as a slice where they are consecutive.  A step
    makes one ``dgbtrs`` call per LU with its cells' rows of the right-hand
    side as columns, in place through a slice's transpose, else gathered and
    scattered back; that gives the bits of one call per cell.

    Cross-diffusion terms use the symmetric face-averaged stencil, which is
    not an M-matrix for every A: positivity fails at step 1 from
    Lambda/lambda = 2 on the rotating field, and at Lambda/lambda = 4 on a
    constant A rotated by 30 degrees.  On a constant field the solve drifts
    the mass by about -2e-16 per step (8^4 nodes), linearly in the steps.
    """

    def __init__(self, grid: PhaseGrid, field: CoefficientField, dt: float):
        flapack = _load_flapack()
        super().__init__(grid, field, dt)
        self._dgbtrf, self._dgbtrs = flapack.dgbtrf, flapack.dgbtrs
        self._kl = grid.nv + 1

    def _assemble(self, t: float) -> None:
        self._groups = []   # two live sets of factors would raise peak memory
        a, b = self._cell_coeffs(t)
        first = np.array(_first_equal_cells(a, b))
        cells = np.unique(first).tolist()
        for c, band in zip(cells, self._cell_bands(a, b, cells)):
            lu, ipiv, info = self._dgbtrf(band.T, self._kl, self._kl, overwrite_ab=True)
            if info != 0:
                raise np.linalg.LinAlgError(f"collision matrix of x-cell {divmod(c, self.grid.nx)} "
                                            f"is singular: pivot {info} is exactly zero")
            rows = np.flatnonzero(first == c)
            if rows[-1] - rows[0] == len(rows) - 1:
                rows = slice(rows[0], rows[-1] + 1)
            self._groups.append((lu, ipiv, rows))

    def _cell_coeffs(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """A (cells, nv, nv, 2, 2) and B (cells, nv, nv, 2) at the nodes."""
        nv, n_cells = self.grid.nv, self.grid.nx**2
        return (self.coeffs.a(t).reshape(n_cells, nv, nv, 2, 2),
                self.coeffs.b(t).reshape(n_cells, nv, nv, 2))

    def _cell_bands(self, a: np.ndarray, b: np.ndarray, cells: list[int]) -> np.ndarray:
        """I - dt L of each of the ``cells`` of ``a`` and ``b`` in band layout."""
        chunk = max(1, _CHUNK_NODES // self.grid.nv**2)
        bands = np.empty((len(cells), self.grid.nv**2, 3 * self._kl + 1))
        for c in range(0, len(cells), chunk):
            _cell_bands_2d(a[cells[c:c + chunk]], b[cells[c:c + chunk]], self.grid.hv, self.dt,
                           bands[c:c + chunk])
        return bands

    def _solve(self) -> np.ndarray:
        rhs = self._rhs
        for lu, ipiv, rows in self._groups:
            out, info = self._dgbtrs(lu, self._kl, self._kl, rhs[rows].T, ipiv, overwrite_b=True)
            if info != 0:
                raise np.linalg.LinAlgError(f"collision solve failed ({info})")
            if not isinstance(rows, slice):
                rhs[rows] = out.T
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


def _ledger_rows(ledger: EnergyLedger, first: int, times: list[float], block: np.ndarray,
                 grid: PhaseGrid) -> None:
    """Write the rows of the states ``block[k]`` at steps ``first + k`` into ``ledger``.

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
    rows = slice(first, first + len(times))
    step_no, time, mass, l2, lo, hi = ledger.columns
    step_no[rows] = np.arange(first, rows.stop)
    time[rows] = times
    mass[rows] = block.sum(axis=axes) * w
    l2[rows] = (block**2).sum(axis=axes) * w
    lo[rows], hi[rows] = fmin, fmax


def solve(cfg: SolverConfig, f0: PhaseGridFunction) -> Trajectory:
    """Run the splitting scheme and return the stored snapshots plus ledger.

    The stored steps are those ``SolverConfig`` names; their times are the
    ledger's, each accumulated by ``step`` as ``state.time``.  The snapshot
    stack and the ledger's n_steps + 1 rows are allocated once.
    Each step's state is copied into a block of about ``_BLOCK_BYTES`` that
    keeps the state's memory layout, and the ledger reduces a full block at
    once into its rows.  The first row with a non-finite value raises
    SolverFailure, which names its step.
    """
    if f0.grid != cfg.grid:
        raise ValueError("initial state grid does not match solver config")
    coll = _make_collision(cfg)
    transport = _make_transport(cfg)
    grid = cfg.grid
    state = PhaseGridFunction(grid, f0.values, 0.0)
    n_steps, stored = cfg.n_steps, cfg._stored_steps()
    values = np.empty((len(stored),) + grid.shape)
    values[0] = state.values
    ledger = EnergyLedger(n_steps + 1)
    _ledger_rows(ledger, 0, [state.time], state.values[None], grid)

    block_size = max(1, _BLOCK_BYTES // state.values.nbytes)
    block = None
    block_times: list[float] = []
    k = 1   # the next stored step is stored[k]; the last one is the final step
    for n in range(1, n_steps + 1):
        state = step(state, cfg, _collision=coll, _transport=transport)
        if block is None:   # every step's state has the first one's layout
            block = _stack_like(state.values, block_size)
        block[len(block_times)] = state.values
        block_times.append(state.time)
        if n == stored[k]:
            values[k] = state.values
            k += 1
        if len(block_times) == len(block) or n == n_steps:
            _ledger_rows(ledger, n + 1 - len(block_times), block_times,
                         block[:len(block_times)], grid)
            block_times = []

    return Trajectory(
        grid=grid,
        times=ledger.column("time")[stored],
        values=values,
        field=cfg.field,
        ledger=ledger,
    )
