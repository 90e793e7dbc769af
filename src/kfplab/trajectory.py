"""Phase-space grids, grid functions, solver trajectories, the region
membership mask the probes sample through, and the |grad_v f|^2 that the
solver's ledger and the energy-type probes share.

A trajectory may carry a Galilean ``base`` transform: it is viewed in the
transformed frame while the stored values stay untouched.  :func:`region_mask`
reads node coordinates in the native frame only; the probes pull their
geometry back through the base first, so every measured constant commutes
with the group action.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable

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
    """A scalar field on a phase grid at one time stamp."""

    grid: PhaseGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "time", float(self.time))


@dataclass(frozen=True)
class LedgerRow:
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

    FIELDS = ("step", "time", "mass", "l2", "fmin", "fmax", "gradv_l2", "source_l2")

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

    def csv_lines(self) -> list[str]:
        lines = [",".join(self.FIELDS)]
        for r in self.rows:
            lines.append(
                f"{r.step},{r.time!r},{r.mass!r},{r.l2!r},{r.fmin!r},{r.fmax!r},"
                f"{r.gradv_l2!r},{r.source_l2!r}"
            )
        return lines


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

    @staticmethod
    def from_function(
        grid: PhaseGrid,
        times,
        fn: Callable[[np.ndarray, np.ndarray, float], np.ndarray],
        field: CoefficientField | None = None,
    ) -> "Trajectory":
        """Sample fn(X, V, t) on the grid; X, V have shape (*grid.shape, d)."""
        times = np.asarray(times, dtype=float)
        x, v = grid.meshes()
        vals = np.stack([np.asarray(fn(x, v, float(t)), dtype=float) for t in times])
        return Trajectory(grid=grid, times=times, values=vals, field=field)


def gradient_v_sq(values: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """|grad_v f|^2 of one snapshot, summed over the velocity components in
    order.

    Each component is np.gradient's arithmetic at uniform spacing: central
    differences (f[j+1] - f[j-1]) / (2 hv) inside and one-sided ones at the
    velocity walls, so the result equals the np.gradient form bitwise and
    keeps the memory layout of ``values``.  The first squared component is
    written in place rather than added to zeros, which gives the same bits.
    """
    h = grid.hv
    out = np.empty_like(values)
    for m in range(grid.d):
        dv = out if m == 0 else np.empty_like(values)
        lead = (slice(None),) * (grid.d + m)
        inner = dv[lead + (slice(1, -1),)]
        np.subtract(values[lead + (slice(2, None),)], values[lead + (slice(None, -2),)], out=inner)
        inner /= 2.0 * h
        for edge, hi, lo in ((0, 1, 0), (-1, -1, -2)):
            side = dv[lead + (edge,)]
            np.subtract(values[lead + (hi,)], values[lead + (lo,)], out=side)
            side /= h
        dv *= dv
        if m:
            out += dv
    return out


def region_mask(traj: Trajectory, region, n: int) -> np.ndarray:
    """Boolean membership mask of grid nodes in ``region`` at snapshot ``n``.

    ``region`` is a Cylinder or PhaseBox.  This is the one definition of
    membership; the trajectory must be base-free (probes pull their geometry
    back through the base before sampling).
    """
    if traj.base is not None:
        raise ValueError("region_mask needs a base-free trajectory")
    g = traj.grid
    c = region.center
    dt_rel = float(traj.times[n]) - c.t
    wx, wv, t_lo, t_hi = collared_windows(*region.windows())
    if not (t_lo < dt_rel <= t_hi):
        return np.zeros(g.shape, dtype=bool)

    # separable per-axis offsets in the centre's co-moving frame
    x_off = [g.x_axis - c.x[m] - dt_rel * c.v[m] for m in range(g.d)]
    v_off = [g.v_axis - c.v[m] for m in range(g.d)]
    if region.per_coordinate():
        axis_masks = [np.abs(o) < wx for o in x_off] + [np.abs(o) < wv for o in v_off]
        return reduce(np.multiply.outer, axis_masks)
    xsq = reduce(np.add.outer, [o**2 for o in x_off])
    vsq = reduce(np.add.outer, [o**2 for o in v_off])
    return np.multiply.outer(xsq < wx**2, vsq < wv**2)


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

    @property
    def d(self) -> int:
        return self.center.d

    def windows(self) -> tuple[float, float, float, float]:
        return self.x_radius, self.v_radius, self.t_lo, self.t_hi

    def per_coordinate(self) -> bool:
        return False

    def transformed(self, z0: KineticPoint) -> "PhaseBox":
        return replace(self, center=compose(z0, self.center))
