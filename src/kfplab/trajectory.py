"""Phase-space grids, grid functions, solver trajectories, the one rule for
how a probe region meets the grid (:class:`Footprint`), and the |grad_v f|^2
that the solver's ledger and the energy-type probes share.

A trajectory may carry a Galilean ``base`` transform: it is viewed in the
transformed frame while the stored values stay untouched.  :func:`region_mask`
reads node coordinates in the native frame only; the probes pull their
geometry back through the base first, so every measured constant commutes
with the group action.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Iterator, NamedTuple

import numpy as np

from .fields import CoefficientField
from .geometry import KineticPoint, collared_windows, compose


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


class LedgerRow(NamedTuple):
    """One step of the ledger: integrals of the state and its extremes."""

    step: int
    time: float
    mass: float
    l2: float
    fmin: float
    fmax: float
    gradv_l2: float
    source_l2: float


@dataclass(frozen=True)
class EnergyLedger:
    """Per-step discrete energy monitoring of a solver run."""

    rows: tuple[LedgerRow, ...]

    FIELDS = LedgerRow._fields

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

    def csv_lines(self) -> Iterator[str]:
        """The header, then one line per row: each value's repr, comma-separated.
        The lines are made one at a time, as they are consumed."""
        line = ",".join(["%r"] * len(self.FIELDS))
        yield ",".join(self.FIELDS)
        for r in self.rows:
            yield line % r


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
        new_base = z0 if self.base is None else compose(z0, self.base)
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


def x_offset(grid: PhaseGrid, center: KineticPoint, dt: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """x axis ``m``: the nodes' offsets from the path of ``center`` at time
    offset ``dt``, and the multiple of the period taking each to its nearest
    image (exactly 0.0 for offsets shorter than half the period)."""
    off = grid.x_axis - center.x[m] - dt * center.v[m]
    return off, grid.x_extent * np.rint(off / grid.x_extent)


@dataclass(frozen=True)
class Footprint:
    """How a Cylinder or PhaseBox meets a phase grid, worked out once per region.

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
        v_mask = _window([grid.v_axis - c.v[m] for m in range(grid.d)], wv, per_coordinate)
        return Footprint(grid, c, wx, t_lo, t_hi, per_coordinate, v_mask)

    def mask(self, dt: float) -> np.ndarray:
        """Full-grid membership mask at time offset ``dt`` from the centre."""
        if not (self.t_lo < dt <= self.t_hi):
            return np.zeros(self.grid.shape, dtype=bool)
        g = self.grid
        x_off = [off - shift for off, shift in (x_offset(g, self.center, dt, m) for m in range(g.d))]
        return np.multiply.outer(_window(x_off, self.wx, self.per_coordinate), self.v_mask)


def _window(offsets: list[np.ndarray], w: float, per_coordinate: bool) -> np.ndarray:
    """Outer membership of per-axis offsets: each |o| < w, or Euclidean |o| < w."""
    if per_coordinate:
        return reduce(np.multiply.outer, [np.abs(o) < w for o in offsets])
    return reduce(np.add.outer, [o**2 for o in offsets]) < w**2


def region_mask(traj: Trajectory, region, n: int) -> np.ndarray:
    """Boolean membership mask of grid nodes in ``region`` (a Cylinder, a
    PhaseBox or its :class:`Footprint`) at snapshot ``n`` of a base-free
    trajectory; probes pull their geometry back through the base first."""
    if traj.base is not None:
        raise ValueError("region_mask needs a base-free trajectory")
    if not isinstance(region, Footprint):
        region = Footprint.of(traj.grid, region)
    return region.mask(float(traj.times[n]) - region.center.t)


@dataclass(frozen=True)
class PhaseBox:
    """Product region B_rx x B_rv x (t_lo, t_hi] around a base point."""

    center: KineticPoint
    x_radius: float
    v_radius: float
    t_lo: float
    t_hi: float

    def __post_init__(self) -> None:
        if self.x_radius <= 0 or self.v_radius <= 0:
            raise ValueError("radii must be positive")
        if not self.t_lo < self.t_hi:
            raise ValueError("need t_lo < t_hi")

    def windows(self) -> tuple[float, float, float, float]:
        return self.x_radius, self.v_radius, self.t_lo, self.t_hi

    def per_coordinate(self) -> bool:
        return False
