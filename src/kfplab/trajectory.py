"""Phase-space grids, grid functions, solver trajectories, the one rule for
how a probe region meets the grid (:class:`Footprint`), and the |grad_v f|^2
that the solver's ledger and the energy-type probes share.

A trajectory may carry a Galilean ``base`` transform: it is viewed in the
transformed frame while the stored values stay untouched.  A
:class:`Footprint` reads node coordinates in the native frame only; the
probes pull their geometry back through the base first, so every measured
constant commutes with the group action.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import CoefficientField
from .geometry import GalileanTransform, KineticPoint, collared_windows, inside_window


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform tensor grid: x in [0, x_extent)^d periodic, v in [-v_max, v_max)^d."""

    d: int
    x_extent: float
    nx: int
    v_max: float
    nv: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.x_extent <= 0 or self.v_max <= 0:
            raise ValueError("extents must be positive")
        if self.nx < 2 or self.nv < 2:
            raise ValueError("need at least two nodes per axis")
        # the solver divides by hx and hv^2, and the probes weigh by the cell volume
        try:
            sizes = (self.hv**2, self.cell_volume)
        except OverflowError:
            sizes = (np.inf,)
        if not all(0.0 < size < np.inf for size in sizes):
            raise ValueError(f"x_extent = {self.x_extent!r}, v_max = {self.v_max!r}: hv^2 or the "
                             f"cell volume hx^{self.d} hv^{self.d} overflows or underflows to 0.0")

    @property
    def hx(self) -> float:
        return self.x_extent / self.nx

    @property
    def hv(self) -> float:
        return 2.0 * self.v_max / self.nv

    @property
    def x_axis(self) -> np.ndarray:
        return np.arange(self.nx) * self.hx

    @property
    def v_axis(self) -> np.ndarray:
        return -self.v_max + np.arange(self.nv) * self.hv

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nx,) * self.d + (self.nv,) * self.d

    @property
    def cell_volume(self) -> float:
        return self.hx**self.d * self.hv**self.d

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate meshes (X, V) of shape (*shape, d)."""
        axes = [self.x_axis] * self.d + [self.v_axis] * self.d
        grids = np.meshgrid(*axes, indexing="ij")
        x = np.stack(grids[: self.d], axis=-1)
        v = np.stack(grids[self.d :], axis=-1)
        return x, v


@dataclass(frozen=True)
class PhaseGridFunction:
    """A scalar field on a phase grid at one time stamp.

    Finiteness is not checked here: the solver reads it from each ledger
    row's fmin and fmax, through which NaN and +-inf propagate.
    """

    grid: PhaseGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "time", float(self.time))


class EnergyLedger:
    """Per-step discrete energy monitoring of a solver run: a column per name in
    ``FIELDS``, ``step`` int64 and the others float64, made with ``n_rows``
    uninitialised rows for its writer to fill.  ``column`` returns the stored array."""

    FIELDS = ("step", "time", "mass", "l2", "fmin", "fmax", "gradv_l2", "source_l2")

    def __init__(self, n_rows: int):
        self.columns = tuple(np.empty(n_rows, dtype=np.int64 if name == "step" else float)
                             for name in self.FIELDS)

    def column(self, name: str) -> np.ndarray:
        return self.columns[self.FIELDS.index(name)]


@dataclass(frozen=True)
class Trajectory:
    """Stored snapshots of a solver run (or of an analytic test function)."""

    grid: PhaseGrid
    times: np.ndarray
    values: np.ndarray
    field: CoefficientField | None = None
    ledger: EnergyLedger | None = None
    base: KineticPoint | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (times.size,) + self.grid.shape:
            raise ValueError("values must have shape (n_times, *grid.shape)")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", vals)

    @property
    def d(self) -> int:
        return self.grid.d

    @property
    def n_times(self) -> int:
        return int(self.times.size)

    def time_weights(self) -> np.ndarray:
        """Quadrature weight per snapshot: gap to the previous stored snapshot."""
        t = self.times
        if t.size == 1:
            return np.ones(1)
        w = np.empty_like(t)
        w[1:] = np.diff(t)
        w[0] = w[1]
        return w

    def transformed(self, z0: KineticPoint) -> "Trajectory":
        new_base = z0 if self.base is None else GalileanTransform(z0).apply(self.base)
        return replace(self, base=new_base)

    def scaled_values(self, c: float) -> "Trajectory":
        return replace(self, values=c * self.values)


def gradient_v_sq(values: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """|grad_v f|^2 of a state, or of a stack of states (..., *grid.shape),
    summed over the velocity components in order.

    Each component is np.gradient's arithmetic at uniform spacing: central
    differences (f[j+1] - f[j-1]) / (2 hv) inside and one-sided ones at the
    velocity walls, so the result equals the np.gradient form bitwise and
    keeps the memory layout of ``values``.  The central differences are taken
    in one pass over the whole array flattened in memory order, at the
    component axis's stride; the nodes that pass pairs across a wall are the
    wall nodes, which the one-sided differences then overwrite.  The first
    squared component is written in place rather than added to zeros, which
    gives the same bits.
    """
    h = grid.hv
    flat = values.ravel(order="K")
    out = np.empty_like(values)
    for m in range(grid.d):
        dv = out if m == 0 else np.empty_like(values)
        axis = values.ndim - grid.d + m
        s = dv.strides[axis] // dv.itemsize
        inner = dv.ravel(order="K")[s:-s]
        np.subtract(flat[2 * s:], flat[:-2 * s], out=inner)
        inner /= 2.0 * h
        lead = (slice(None),) * axis
        for edge, hi, lo in ((0, 1, 0), (-1, -1, -2)):
            side = dv[lead + (edge,)]
            np.subtract(values[lead + (hi,)], values[lead + (lo,)], out=side)
            side /= h
        dv *= dv
        if m:
            out += dv
    return out


def x_offset(grid: PhaseGrid, center: KineticPoint, dt: float | np.ndarray,
             m: int) -> tuple[np.ndarray, np.ndarray]:
    """x axis ``m``: the nodes' offsets from the path of ``center`` at time
    offset ``dt``, a float or a column, and the period multiple taking each
    to its nearest image (exactly 0.0 for offsets shorter than half the period)."""
    off = grid.x_axis - center.x[m] - dt * center.v[m]
    return off, grid.x_extent * np.rint(off / grid.x_extent)


@dataclass(frozen=True)
class Footprint:
    """How a Cylinder meets a phase grid, worked out once per region.

    x is periodic: a node is tested at its image nearest the centre's path.
    An x window wider than the period (2 wx > x_extent) or a reach past a
    velocity wall (|v0| + wv > v_max) is a ValueError.  In time a region is
    whatever part of it meets the stored snapshots, never an error.
    """

    grid: PhaseGrid
    center: KineticPoint
    wx: float
    t_lo: float
    t_hi: float
    per_coordinate: bool
    v_mask: np.ndarray

    @staticmethod
    def of(grid: PhaseGrid, region) -> "Footprint":
        wx, wv, t_lo, t_hi = region.windows()
        c = region.center
        if 2.0 * wx > grid.x_extent:
            raise ValueError(f"region x window 2 wx = {2.0 * wx!r} is wider than the period {grid.x_extent!r}")
        if (reach := float(np.abs(c.v).max()) + wv) > grid.v_max:
            raise ValueError(f"region reaches past a velocity wall: |v0| + wv = {reach!r} > {grid.v_max!r}")
        wx, wv, t_lo, t_hi = collared_windows(wx, wv, t_lo, t_hi)
        per_coordinate = region.per_coordinate()
        v_off = np.meshgrid(*[grid.v_axis - c.v[m] for m in range(grid.d)], indexing="ij")
        v_mask = inside_window(np.stack(v_off, axis=-1), wv, per_coordinate)
        return Footprint(grid, c, wx, t_lo, t_hi, per_coordinate, v_mask)

    def x_windows(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices of ``times`` in the time window, and whether each x node lies in
        the x window at each, as a (k, nx**d) array, by :func:`x_offset`'s arithmetic."""
        g, dt = self.grid, times - self.center.t
        hit = np.flatnonzero((dt > self.t_lo) & (dt <= self.t_hi))
        nodes = np.unravel_index(np.arange(g.nx**g.d), (g.nx,) * g.d)
        offsets = [np.subtract(*x_offset(g, self.center, dt[hit, None], m))[:, nodes[m]]
                   for m in range(g.d)]
        return hit, inside_window(np.stack(offsets, axis=-1), self.wx, self.per_coordinate)


def region_mask(traj: Trajectory, region, n: int) -> np.ndarray:
    """Boolean membership mask of grid nodes in ``region`` (a Cylinder or its
    :class:`Footprint`) at snapshot ``n`` of a base-free trajectory; probes
    pull their geometry back through the base first."""
    if traj.base is not None:
        raise ValueError("region_mask needs a base-free trajectory")
    if not isinstance(region, Footprint):
        region = Footprint.of(traj.grid, region)
    # no row of x windows when the snapshot lies outside the time window
    _, inside = region.x_windows(traj.times[n:n + 1])
    return np.multiply.outer(inside.any(axis=0).reshape((traj.grid.nx,) * traj.d), region.v_mask)
