"""Probes that measure, on solver output, the quantities bounded by the
regularity theory: cylinder norms, level-set measures, oscillation decay and
its fitted exponent, Harnack quotients, doubling constants, weighted-mean
energy ratios, fractional seminorms, reverse-Hoelder data and minimum
propagation.

Probes are pure functions of (trajectory, geometry, seeds).  Points and
regions handed to a probe are interpreted in the frame the trajectory is
viewed in, so transforming both the trajectory and the probe geometry by the
same Galilean change of frame leaves every measured constant unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from typing import NamedTuple

import numpy as np

from .fields import CoefficientField
from .geometry import (
    Cylinder,
    CylinderShape,
    GalileanTransform,
    KineticPoint,
    compose,
    group_product,
    group_quotient,
    iterated_times,
)
from .iteration import holder_alpha, sobolev_p
from .trajectory import Footprint, PhaseBox, Trajectory, gradient_v_sq, region_mask, x_offset


@dataclass(frozen=True)
class ProbeReport:
    """Named measured constants with the geometry that produced them."""

    name: str
    params: dict
    constants: dict
    verdict: str

    def __post_init__(self) -> None:
        clean = {
            k: float(v) if isinstance(v, (int, float, np.floating, np.integer)) else v
            for k, v in self.constants.items()
        }
        object.__setattr__(self, "constants", clean)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "constants": self.constants,
            "verdict": self.verdict,
        }


def c01_constant(r_ext: float, r_int: float) -> float:
    """Cutoff constant 1/(r0^2-r1^2) + r0/(r0^3-r1^3) + 1/(r0-r1)^2 + 1."""
    if not 0.0 < r_int < r_ext:
        raise ValueError(f"need 0 < r_int < r_ext, got {r_int}, {r_ext}")
    r0, r1 = r_ext, r_int
    return 1.0 / (r0**2 - r1**2) + r0 / (r0**3 - r1**3) + 1.0 / (r0 - r1) ** 2 + 1.0


def _native(traj: Trajectory, *objs):
    """View the trajectory base-free and pull probe geometry into that frame."""
    if traj.base is None:
        return (traj, *objs)
    inv = GalileanTransform(traj.base)
    out = []
    for obj in objs:
        if isinstance(obj, KineticPoint):
            out.append(inv.apply_inverse(obj))
        elif isinstance(obj, (Cylinder, PhaseBox)):
            out.append(replace(obj, center=inv.apply_inverse(obj.center)))
        elif obj is None:
            out.append(None)
        else:
            raise TypeError(f"cannot pull back {type(obj)!r}")
    return (replace(traj, base=None), *out)


class RegionSlice(NamedTuple):
    """One snapshot of a region sample."""

    n: int              # snapshot index
    mask: np.ndarray    # grid nodes inside the region
    values: np.ndarray  # f at those nodes, in C order
    tw: float           # time weight of the snapshot
    weight: float       # cell volume x time weight


def sample_region(traj: Trajectory, region) -> list[RegionSlice]:
    """The snapshots of a base-free trajectory that meet ``region`` by the rule
    of :class:`Footprint`, worked out once here.  One vector test on the
    snapshot times keeps those in the collared time window; masks are built
    only for them, empty ones are dropped, and every probe reduces this list
    in snapshot order."""
    footprint = Footprint.of(traj.grid, region)
    dt = traj.times - region.center.t
    tw = traj.time_weights()
    cell = traj.grid.cell_volume
    sample = []
    for n in np.flatnonzero((dt > footprint.t_lo) & (dt <= footprint.t_hi)):
        mask = region_mask(traj, footprint, int(n))
        if mask.any():
            sample.append(RegionSlice(int(n), mask, traj.values[n][mask], tw[n], cell * tw[n]))
    return sample


def _nodes(mask: np.ndarray, x_axes, v_axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (x, v), each (k, d), of a mask's nodes in C order; x per axis."""
    d = len(x_axes)
    idx = np.nonzero(mask)
    x = np.stack([ax[i] for ax, i in zip(x_axes, idx[:d])], axis=-1)
    v = np.stack([v_axis[i] for i in idx[d:]], axis=-1)
    return x, v


def _region_min(sample: list[RegionSlice]) -> float:
    _require_points(sample)
    return min(float(piece.values.min()) for piece in sample)


def _region_max(sample: list[RegionSlice]) -> float:
    _require_points(sample)
    return max(float(piece.values.max()) for piece in sample)


def _abs_max(values: np.ndarray, lo: float | None = None) -> float:
    """max |f| as max(max f, -min f), without an |f|-sized temporary; a NaN
    in ``values`` gives NaN, as np.abs(values).max() does.  ``lo`` is
    values.min() where the caller already has it."""
    if lo is None:
        lo = values.min()
    return float(np.maximum(values.max(), -lo))


def _require_points(sample: list[RegionSlice]) -> None:
    if not sample:
        raise ValueError("region does not intersect the stored grid points")


def _integrate(traj: Trajectory, sample: list[RegionSlice], term) -> float:
    """Sum of term(piece) x cell volume x time weight, in snapshot order."""
    cell = traj.grid.cell_volume
    total = 0.0
    for piece in sample:
        total += float(term(piece)) * cell * piece.tw
    return total


def _source_values(traj: Trajectory, piece: RegionSlice) -> np.ndarray:
    """s at a sampled snapshot's in-region nodes, at the solver's node coordinates."""
    field, g = traj.field, traj.grid
    if field is None or field.s_bound == 0.0:
        return np.zeros(piece.values.size)
    x, v = _nodes(piece.mask, [g.x_axis] * g.d, g.v_axis)
    return field.s(x, v, float(traj.times[piece.n]))


def source_nonnegative(field: CoefficientField | None) -> bool:
    """Whether the field declares s >= 0 (a run without field has no source)."""
    return field is None or field.s_min >= 0.0


def lower_order_free(field: CoefficientField | None) -> bool:
    """Whether the field declares B = 0 and s = 0 (a run without field has neither)."""
    return field is None or field.b_bound == field.s_bound == 0.0


def norm_on_cylinder(traj: Trajectory, region, p, normalized: bool = False) -> float:
    """Grid quadrature of the L^p norm of f over the region.

    p = inf returns the plain maximum of f over in-region grid points (the
    half-open time window makes the top time slice count).  With
    ``normalized`` the measure is normalised (integral average), making the
    result monotone non-decreasing in p.
    """
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    traj, region = _native(traj, region)
    return _norm(sample_region(traj, region), p, normalized)


def _norm(sample: list[RegionSlice], p, normalized: bool = False) -> float:
    if p == math.inf:
        return _region_max(sample)
    _require_points(sample)
    total = 0.0
    measure = 0.0
    for piece in sample:
        total += float(np.sum(np.abs(piece.values) ** p)) * piece.weight
        measure += float(piece.mask.sum()) * piece.weight
    if normalized:
        return (total / measure) ** (1.0 / p)
    return total ** (1.0 / p)


def gain_probe(traj: Trajectory, q_int: Cylinder, q_ext: Cylinder) -> ProbeReport:
    """Empirical constant of the integrability gain on nested cylinders.

    Measures ||f||_{L^p(Q_int)}^2 against
    C01^2 ||f||_{L^2(Q_ext)}^2 + C01 int_{Q_ext} s^2 1_{f>0} with
    p = 6(2d+1)/(6d+1), and reports the ratio.
    """
    traj, q_int, q_ext = _native(traj, q_int, q_ext)
    _require_nested(q_int, q_ext)
    lo = float(traj.values.min())
    if lo < -1e-10 * max(1.0, _abs_max(traj.values, lo)):
        raise ValueError("gain probe requires a non-negative run")
    p = sobolev_p(traj.d)
    ext = sample_region(traj, q_ext)
    lhs = _norm(sample_region(traj, q_int), p) ** 2
    f_l2_sq = _norm(ext, 2) ** 2

    def source_sq_where_positive(piece):
        return np.sum(_source_values(traj, piece)[piece.values > 0.0] ** 2)

    src = _integrate(traj, ext, source_sq_where_positive)
    c01 = c01_constant(q_ext.radius, q_int.radius)
    rhs = c01**2 * f_l2_sq + c01 * src
    degenerate = rhs == 0.0
    return ProbeReport(
        name="gain",
        params={"r_int": q_int.radius, "r_ext": q_ext.radius, "p": p},
        constants={
            "p": p,
            "lhs_lp_sq": lhs,
            "f_l2_sq": f_l2_sq,
            "source_sq": src,
            "c01": c01,
            "cbar": math.nan if degenerate else lhs / rhs,
        },
        verdict="degenerate" if degenerate else "ok",
    )


def _require_nested(q_int: Cylinder, q_ext: Cylinder) -> None:
    same_center = (
        np.array_equal(q_int.center.x, q_ext.center.x)
        and np.array_equal(q_int.center.v, q_ext.center.v)
        and q_int.center.t == q_ext.center.t
    )
    if not same_center or q_int.shape is not q_ext.shape or q_int.radius >= q_ext.radius:
        raise ValueError("cylinders must be concentric, same shape and strictly nested")


@dataclass(frozen=True)
class LevelSetMeasures:
    high: float       # measure of {f >= 1 - theta}
    low: float        # measure of {f <= 0}
    mid: float        # measure of {0 < f < 1 - theta}
    region: float     # grid measure of the region


def level_set_measures(traj: Trajectory, theta: float, region) -> LevelSetMeasures:
    """Grid measures of the level buckets of f, intersected with the region.

    The three buckets partition the range, so high + low + mid equals the grid
    measure of the region exactly.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    traj, region = _native(traj, region)
    high = low = mid = total = 0.0
    cut = 1.0 - theta
    for piece in sample_region(traj, region):
        vals, w = piece.values, piece.weight
        high += float(np.count_nonzero(vals >= cut)) * w
        low += float(np.count_nonzero(vals <= 0.0)) * w
        mid += float(np.count_nonzero((vals > 0.0) & (vals < cut))) * w
        total += float(vals.size) * w
    return LevelSetMeasures(high=high, low=low, mid=mid, region=total)


def oscillation(traj: Trajectory, region) -> float:
    """max - min of f over in-region grid points."""
    traj, region = _native(traj, region)
    sample = sample_region(traj, region)
    return _region_max(sample) - _region_min(sample)


def holder_fit(
    traj: Trajectory,
    z1: KineticPoint,
    omega: float = 0.25,
    k_levels: int = 4,
    r_base: float | None = None,
) -> ProbeReport:
    """Oscillation-decay ladder osc over Q_{r_k}(z1) with r_k = (omega/2)^k r/2.

    Fits log osc against log r_k (slope = measured Hoelder exponent) and also
    converts the measured per-level contraction theta_hat into the predicted
    exponent ln theta_hat / ln(omega/2).  Empty levels and those with
    oscillation at roundoff are dropped; all levels empty or fewer than three
    usable levels is an error.
    """
    traj, z1 = _native(traj, z1)
    if not 0.0 < omega < 1.0:
        raise ValueError(f"omega must lie in (0, 1), got {omega}")
    if r_base is None:
        r_base = _largest_radius(traj, z1)
    radii = [(omega / 2.0) ** k * r_base / 2.0 for k in range(1, k_levels + 1)]
    scale = _abs_max(traj.values)
    floor = 10.0 * np.finfo(float).eps * max(scale, 1.0)

    levels: list[tuple[float, float]] = []
    samples = [sample_region(traj, Cylinder(z1, r)) for r in radii]
    if not any(samples):
        raise ValueError("no oscillation level meets the stored snapshots")
    for r, sample in zip(radii, samples):
        if sample and (osc := _region_max(sample) - _region_min(sample)) > floor:
            levels.append((r, osc))
    if 0 < len(levels) < 3:
        raise ValueError(f"only {len(levels)} usable oscillation levels, need >= 3")
    if not levels:
        # oscillation at roundoff on every resolvable level (constant data)
        constants = {"alpha_fit": math.nan, "levels_used": 0.0}
    else:
        rs = np.array([r for r, _ in levels])
        oscs = np.array([o for _, o in levels])
        slope, intercept = np.polyfit(np.log(rs), np.log(oscs), 1)
        ratios = np.clip(oscs[1:] / oscs[:-1], 1e-15, 1.0 - 1e-15)
        theta_hat = float(np.exp(np.mean(np.log(ratios))))
        constants = {
            "alpha_fit": float(slope),
            "amplitude": float(np.exp(intercept)),
            "theta_hat": theta_hat,
            "alpha_predicted": holder_alpha(theta_hat, omega),
            "levels_used": float(len(levels)),
        }
        for i, (r, o) in enumerate(levels, start=1):
            constants[f"r_{i}"] = float(r)
            constants[f"osc_{i}"] = float(o)
    return ProbeReport(
        name="holder",
        params={"omega": omega, "k_levels": k_levels, "r_base": float(r_base)},
        constants=constants,
        verdict="ok" if levels else "degenerate",
    )


def _largest_radius(traj: Trajectory, z1: KineticPoint) -> float:
    """Largest r <= 1 with Q_{2r}(z1) after the first snapshot and admitted
    by :class:`Footprint` (clear of the v-walls, x window within the period)."""
    g = traj.grid
    r = min(1.0, math.sqrt(max(z1.t - float(traj.times[0]), 0.0)) / 2.0,
            (g.v_max - float(np.abs(z1.v).max())) / 2.0, (g.x_extent / 2.0) ** (1.0 / 3.0) / 2.0)
    if r <= 0.0:
        raise ValueError("no admissible radius at this base point")
    return r


@dataclass(frozen=True)
class HarnackParams:
    """Geometry of the Harnack quotient: Q+ = Q_R(c), Q- = Q_R(c o (0,0,-Delta)).

    rho1 < rho2 bound the intermediate cylinders used by the propagation
    probe; q is the propagation exponent and fixes
    C_pm = ((1/2 + R^2)/4)^{q/2}.
    """

    r: float
    delta: float
    rho1: float
    rho2: float
    q: float = 2.0
    center: KineticPoint = KineticPoint.origin(1)

    def __post_init__(self) -> None:
        if not 0.0 < self.r < 1.0 or not 0.0 < self.delta < 1.0:
            raise ValueError("need 0 < R, Delta < 1")
        if not self.r < self.rho1 < self.rho2 < 1.0:
            raise ValueError("need R < rho1 < rho2 < 1")
        if self.delta <= self.r**2:
            raise ValueError("need Delta > R^2 so that Q+ and Q- are disjoint")
        if self.q <= 0:
            raise ValueError("q must be positive")

    @property
    def c_pm(self) -> float:
        return ((0.5 + self.r**2) / 4.0) ** (self.q / 2.0)

    def q_plus(self) -> Cylinder:
        return Cylinder(self.center, self.r)

    def _minus_center(self) -> KineticPoint:
        shift = KineticPoint(np.zeros(self.center.d), np.zeros(self.center.d), -self.delta)
        return compose(self.center, shift)

    def q_minus(self, rho: float | None = None) -> Cylinder:
        return Cylinder(self._minus_center(), self.r if rho is None else rho)


def harnack_probe(traj: Trajectory, params: HarnackParams) -> ProbeReport:
    """sup_{Q^-} f / (inf_{Q^+} f + sup |s|), the empirical Harnack constant.

    Scale-invariant: multiplying f and s by c > 0 leaves the quotient fixed.
    Degenerate (0/0) runs are flagged instead of reported as constants.
    """
    traj, center = _native(traj, params.center)
    params = replace(params, center=center)
    unit = sample_region(traj, Cylinder(center, 1.0))
    minus = sample_region(traj, params.q_minus())
    plus = sample_region(traj, params.q_plus())
    sup_minus = _region_max(minus)
    inf_plus = _region_min(plus)
    f_min_unit = min((float(piece.values.min()) for piece in unit), default=math.inf)
    s_sup = max((float(np.abs(_source_values(traj, piece)).max()) for piece in unit), default=0.0)
    scale = max(1.0, _abs_max(traj.values))
    if f_min_unit < -1e-10 * scale:
        raise ValueError(f"non-negative run required, min over Q_1 is {f_min_unit:.3e}")

    denom = inf_plus + s_sup
    degenerate = denom <= 0.0
    constants = {
        "sup_minus": sup_minus,
        "inf_plus": inf_plus,
        "source_sup": s_sup,
        "c_emp": math.nan if degenerate else sup_minus / denom,
    }
    return ProbeReport(
        name="harnack",
        params={"R": params.r, "Delta": params.delta, "rho1": params.rho1,
                "rho2": params.rho2, "q": params.q},
        constants=constants,
        verdict="degenerate" if degenerate else "ok",
    )


def doubling_probe(
    traj: Trajectory,
    omega: float = 0.25,
    n_levels: int = 2,
    z0: KineticPoint | None = None,
    r: float | None = None,
) -> ProbeReport:
    """Per-level doubling constants h_k = (inf_{Q^k} f / inf_{Q^0} f)^{1/k}.

    Q^0 is the elongated cylinder at (z0, r) and Q^k the iterated cylinders,
    all moved by the group action; requires a non-negative-source run.
    """
    traj, z0 = _native(traj, z0)
    if not source_nonnegative(traj.field):
        raise ValueError("doubling probe requires a sign-definite (s >= 0) run")
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    t_lo, t_hi = float(traj.times[0]), float(traj.times[-1])
    t_top = iterated_times(n_levels)[1]
    if r is None:
        r = 0.95 * math.sqrt((t_hi - t_lo) / (t_top + 1.0))
    # the top level has the widest windows: an r whose windows overflow or vanish fails here
    Cylinder(KineticPoint.origin(traj.d), r, CylinderShape.ITERATED, omega=omega, k=n_levels)
    if z0 is None:
        g = traj.grid
        x_mid = float(g.x_axis[g.nx // 2])
        v_mid = float(g.v_axis[int(np.argmin(np.abs(g.v_axis)))])
        z0 = KineticPoint.of([x_mid] * traj.d, [v_mid] * traj.d, t_lo + r**2 * 1.0001)
    if z0.t - r**2 < t_lo or z0.t + r**2 * t_top > t_hi:
        raise ValueError("iterated cylinders do not fit in the stored time range")

    q0 = Cylinder(z0, r, CylinderShape.ELONGATED, omega=omega)
    inf0 = _region_min(sample_region(traj, q0))
    constants: dict = {"r": float(r), "inf_q0": inf0}
    if inf0 > 0.0:
        h_min = math.inf
        for k in range(1, n_levels + 1):
            qk = Cylinder(z0, r, CylinderShape.ITERATED, omega=omega, k=k)
            inf_k = _region_min(sample_region(traj, qk))
            h_k = (max(inf_k, 0.0) / inf0) ** (1.0 / k)
            constants[f"inf_q{k}"] = inf_k
            constants[f"h_{k}"] = h_k
            h_min = min(h_min, h_k)
        constants["h_min"] = h_min
    return ProbeReport(
        name="doubling",
        params={"omega": omega, "n_levels": n_levels},
        constants=constants,
        verdict="ok" if inf0 > 0.0 else "degenerate",
    )


def smooth_bump(u: np.ndarray) -> np.ndarray:
    """Plateau cutoff: 1 on [-1, 1], 0 outside [-2, 2], square root C-infinity."""
    a = np.abs(np.asarray(u, dtype=float))
    out = np.zeros_like(a)
    out[a <= 1.0] = 1.0
    mid = (a > 1.0) & (a < 2.0)
    s = a[mid] - 1.0
    g0 = np.exp(-1.0 / s)
    g1 = np.exp(-1.0 / (1.0 - s))
    out[mid] = (g1 / (g0 + g1)) ** 2
    return out


def weighted_mean(traj: Trajectory, z0: KineticPoint, r_scale: float, t: float) -> float:
    """Cutoff-weighted spatial mean of f at one snapshot time.

    The cutoff is the product bump with plateau (r^3, r) per (x, v) axis,
    support (2r)^3, 2r (all offsets taken in the co-moving frame of z0, x
    offsets at their nearest periodic image); the normalisation is the grid
    integral of the cutoff, so a function constant on the support is
    reproduced exactly.
    """
    traj, z0, at_t = _native(traj, z0, KineticPoint(z0.x, z0.v, t))
    t = at_t.t
    if r_scale <= 0:
        raise ValueError("scale must be positive")
    n = int(np.argmin(np.abs(traj.times - t)))
    if abs(float(traj.times[n]) - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"no stored snapshot at time {t}")
    return _mean_at(traj, z0, r_scale, n)


def _mean_at(traj: Trajectory, z0: KineticPoint, r_scale: float, n: int) -> float:
    """:func:`weighted_mean` at snapshot ``n`` of a base-free trajectory."""
    g = traj.grid
    dt = float(traj.times[n]) - z0.t
    chi = np.ones(g.shape)
    for m in range(g.d):
        off, shift = x_offset(g, z0, dt, m)
        shape = [1] * (2 * g.d)
        shape[m] = g.nx
        chi = chi * smooth_bump((off - shift) / r_scale**3).reshape(shape)
        v_off = g.v_axis - z0.v[m]
        shape = [1] * (2 * g.d)
        shape[g.d + m] = g.nv
        chi = chi * smooth_bump(v_off / r_scale).reshape(shape)
    denom = float(chi.sum())
    if denom == 0.0:
        raise ValueError("cutoff support does not intersect the grid")
    return float((traj.values[n] * chi).sum() / denom)


def caccioppoli_probe(traj: Trajectory, z0: KineticPoint, r_scale: float) -> ProbeReport:
    """Empirical constants of the weighted-mean energy and Poincare estimates.

    On cube cylinders: int_{Q_R} |grad_v f|^2 against
    R^{-2} int_{Q_2R} |f - mean_{2R}(t)|^2, and
    sup_t int_{Q_R^t} |f - mean_R(t)|^2 against int_{Q_3R} |grad_v f|^2.
    """
    traj, z0 = _native(traj, z0)
    r = r_scale
    q_r = Cylinder(z0, r, CylinderShape.CUBE)
    q_2r = Cylinder(z0, 2.0 * r, CylinderShape.CUBE)
    q_3r = Cylinder(z0, 3.0 * r, CylinderShape.CUBE)

    grad = cache(lambda n: gradient_v_sq(traj.values[n], traj.grid))

    def grad_sq(piece):
        return grad(piece.n)[piece.mask].sum()

    def spread(piece, scale):
        mean = _mean_at(traj, z0, scale, piece.n)
        return ((piece.values - mean) ** 2).sum()

    s_r = sample_region(traj, q_r)
    grad_r = _integrate(traj, s_r, grad_sq)
    grad_3r = _integrate(traj, sample_region(traj, q_3r), grad_sq)
    diff_2r = _integrate(traj, sample_region(traj, q_2r), lambda p: spread(p, r))
    cell = traj.grid.cell_volume
    sup_slice = max((float(spread(p, r / 2.0)) * cell for p in s_r), default=0.0)
    rhs1 = diff_2r / r**2
    c1 = math.nan if rhs1 == 0.0 else grad_r / rhs1
    c2 = math.nan if grad_3r == 0.0 else sup_slice / grad_3r
    degenerate = rhs1 == 0.0 and grad_3r == 0.0
    return ProbeReport(
        name="caccioppoli",
        params={"R": r},
        constants={
            "grad_sq_qr": grad_r,
            "mean_diff_sq_q2r": diff_2r,
            "energy_constant": c1,
            "sup_slice_diff_sq": sup_slice,
            "grad_sq_q3r": grad_3r,
            "poincare_constant": c2,
        },
        verdict="degenerate" if degenerate else "ok",
    )


def fractional_seminorm(
    traj: Trajectory,
    s_order: float,
    region,
    n_pairs: int = 20_000,
    seed: int = 0,
) -> float:
    """Discrete Gagliardo seminorm over the region by pair subsampling.

    sum over point pairs of |f(z) - f(z')|^2 / |z - z'|^{D + 2s} with
    D = 2d + 1, distances taken in the trajectory's native frame between the
    node images inside the region's x window; Monte Carlo over pairs with a
    fixed seed, or the exact double sum when small enough.
    """
    if not 0.0 < s_order < 1.0:
        raise ValueError(f"s_order must lie in (0, 1), got {s_order}")
    traj, region = _native(traj, region)
    sample = sample_region(traj, region)
    _require_points(sample)
    g = traj.grid
    coords = []
    for piece in sample:
        dt = float(traj.times[piece.n]) - region.center.t
        x_axes = [g.x_axis - x_offset(g, region.center, dt, m)[1] for m in range(g.d)]
        xs, vs = _nodes(piece.mask, x_axes, g.v_axis)
        ts = np.full(xs.shape[0], float(traj.times[piece.n]))
        coords.append(np.concatenate([xs, vs, ts[:, None]], axis=1))
    z = np.concatenate(coords)
    f = np.concatenate([piece.values for piece in sample])
    w = np.concatenate([np.full(piece.values.size, piece.weight) for piece in sample])
    n_pts = z.shape[0]
    if n_pts < 2:
        raise ValueError("need at least two in-region points")
    power = (2 * traj.d + 1) + 2.0 * s_order

    if n_pts * n_pts <= n_pairs:
        total = 0.0
        for i in range(n_pts):
            diff = z - z[i]
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            dist[i] = np.inf
            total += float(np.sum((f - f[i]) ** 2 / dist**power * w * w[i]))
        return total

    rng = np.random.default_rng(seed)
    ii = rng.integers(0, n_pts, size=n_pairs)
    jj = rng.integers(0, n_pts, size=n_pairs)
    keep = ii != jj
    ii, jj = ii[keep], jj[keep]
    diff = z[ii] - z[jj]
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    contrib = (f[ii] - f[jj]) ** 2 / dist**power * w[ii] * w[jj]
    # the kept draws are uniform over the n (n - 1) ordered pairs i != j
    return float(n_pts * (n_pts - 1) * contrib.mean())


# the Gehring scan: inner radii r0/4 * 2^-j, time shifts per radius, and the
# cap on the fitted integrability gain epsilon
_GEHRING_RADII = 3
_GEHRING_TIME_SHIFTS = 3
_GEHRING_EPS_CAP = 1.0


def gehring_probe(
    traj: Trajectory,
    q: float,
    q0: Cylinder,
    theta: float = 0.5,
) -> ProbeReport:
    """Reverse-Hoelder scan of g = |grad_v f|^2 on cube cylinders.

    For the trial theta, reports the minimal b making
    avg_{Q_R} g^q <= b (avg_{Q_4R} g)^q + theta avg_{Q_4R} g^q hold on every
    scanned (center, R); separately fits the distribution tail of g to
    estimate the largest finite moment order and evaluates the higher-
    integrability ratio on the nested slanted cylinders.
    """
    traj, q0 = _native(traj, q0)
    if q <= 1.0:
        raise ValueError(f"q must exceed 1, got {q}")
    if not lower_order_free(traj.field):
        raise ValueError("gehring probe requires a run without lower-order terms (B = 0, s = 0)")

    grad = cache(lambda n: gradient_v_sq(traj.values[n], traj.grid))
    c = q0.center
    r0 = q0.radius

    scan: list[tuple[Cylinder, Cylinder]] = []
    for j in range(_GEHRING_RADII):
        r_small = r0 / 4.0 * 0.5**j
        for k in range(_GEHRING_TIME_SHIFTS):
            t_c = c.t - (r0**2 - (4.0 * r_small) ** 2) * k / (_GEHRING_TIME_SHIFTS - 1)
            center = KineticPoint(c.x, c.v, t_c)
            inner = Cylinder(center, r_small, CylinderShape.CUBE)
            outer = Cylinder(center, 4.0 * r_small, CylinderShape.CUBE)
            if _contained_in(outer, q0):
                scan.append((inner, outer))
    if not scan:
        raise ValueError("no admissible scan cylinders inside Q0")

    def _integral(sample: list[RegionSlice], power: float) -> float:
        return _integrate(traj, sample, lambda p: np.sum(grad(p.n)[p.mask] ** power))

    def _avg(sample: list[RegionSlice], power: float) -> float | None:
        measure = _integrate(traj, sample, lambda p: p.mask.sum())
        return None if measure == 0.0 else _integral(sample, power) / measure

    b_worst = -math.inf
    b_arg = None
    for inner, outer in scan:
        outer_sample = sample_region(traj, outer)
        with np.errstate(over="ignore"):   # powers out of the float range are rejected below
            lhs = _avg(sample_region(traj, inner), q)
            g_mean = _avg(outer_sample, 1.0)
            g_q_mean = _avg(outer_sample, q)
            if lhs is None or g_mean is None or g_q_mean is None or g_mean <= 0.0:
                # scan cylinders below the stored snapshot resolution are skipped
                continue
            g_mean_q = g_mean**q
        if not (0.0 < g_mean_q < math.inf and math.isfinite(lhs) and math.isfinite(g_q_mean)):
            raise ValueError(f"q = {q!r}: g^q or (avg g)^q leaves the float range")
        b_needed = (lhs - theta * g_q_mean) / g_mean_q
        if b_needed > b_worst:
            b_worst = b_needed
            b_arg = (float(inner.radius), float(inner.center.t))
    b_emp = max(0.0, b_worst) if b_arg is not None else math.nan

    # tail fit of g on Q[2] for the largest finite moment order
    q_2 = sample_region(traj, Cylinder(c, 0.5 * r0))
    q_1 = sample_region(traj, Cylinder(c, 0.75 * r0))
    g_all = np.sort(np.concatenate([grad(piece.n)[piece.mask] for piece in q_2]))[::-1]
    positive = g_all[g_all > 0.0]
    eps_emp = _GEHRING_EPS_CAP
    if positive.size >= 16:
        m = max(8, positive.size // 10)
        lam = positive[:m]
        # a flat top decile means no polynomial tail: every moment is finite
        if np.ptp(np.log(lam)) > 1e-8:
            survival = (np.arange(m) + 1.0) / positive.size
            slope, _ = np.polyfit(np.log(lam), np.log(survival), 1)
            a_tail = -slope
            if a_tail > 1.0:
                eps_emp = float(min(_GEHRING_EPS_CAP, 2.0 * (a_tail - 1.0)))
            else:
                eps_emp = 0.0

    num = _integral(q_2, (2.0 + eps_emp) / 2.0)
    den = _integral(q_1, 1.0) ** ((2.0 + eps_emp) / 2.0)
    ratio = math.nan if den == 0.0 else num / den
    return ProbeReport(
        name="gehring",
        params={"q": q, "theta": theta, "r0": r0, "n_scanned": len(scan)},
        constants={
            "b_emp": b_emp,
            "epsilon_emp": eps_emp,
            "l2eps_ratio": ratio,
            "b_arg_radius": math.nan if b_arg is None else b_arg[0],
            "b_arg_time": math.nan if b_arg is None else b_arg[1],
        },
        verdict="ok" if b_arg is not None else "degenerate",
    )


def _contained_in(inner: Cylinder, outer: Cylinder) -> bool:
    """Sufficient containment check via window bounds.

    A point of ``inner`` lies, in ``outer``'s frame, at the offset of the
    inner centre's path at its time plus at most ``inner``'s windows.  Both
    are measured in ``outer``'s norm: max-abs for a CUBE, Euclidean
    otherwise, where a CUBE window of half-width w reaches w sqrt(d).  The x
    offset is affine in time, so its norm peaks at an end of the time window.
    """
    wx_i, wv_i, tlo_i, thi_i = inner.windows()
    wx_o, wv_o, tlo_o, thi_o = outer.windows()
    if inner.per_coordinate() and not outer.per_coordinate():
        wx_i, wv_i = wx_i * math.sqrt(inner.d), wv_i * math.sqrt(inner.d)

    def norm(y) -> float:
        return float(np.max(np.abs(y))) if outer.per_coordinate() else math.hypot(*y)

    for t_rel in (tlo_i, thi_i):
        path = group_product(inner.center, (0.0, 0.0, t_rel))
        off_x, off_v, _ = group_quotient(outer.center, path)
        if norm(off_v) + wv_i > wv_o or norm(off_x) + wx_i > wx_o:
            return False
    return (inner.center.t + tlo_i >= outer.center.t + tlo_o
            and inner.center.t + thi_i <= outer.center.t + thi_o)


def propagation_probe(traj: Trajectory, params: HarnackParams, r_ladder) -> ProbeReport:
    """Minimum propagation: min_{Q^el_r(z)} f against C_pm r^{-q} min_{Q^+} f,
    with z the centre of Q^-.

    Fits the empirical exponent q_hat from the log-log decay of
    min_{Q^el_r} f / min_{Q^+} f over the ladder of r values.
    """
    traj, center = _native(traj, params.center)
    params = replace(params, center=center)
    if not source_nonnegative(traj.field):
        raise ValueError("propagation probe requires a sign-definite (s >= 0) run")
    z = params._minus_center()
    q_minus_2 = params.q_minus(params.rho2)
    m_plus = _region_min(sample_region(traj, params.q_plus()))

    rs = sorted(float(r) for r in r_ladder)
    if not rs or rs[0] <= 0.0:
        raise ValueError("r ladder must contain positive radii")
    mins = []
    omega = 0.25
    for r in rs:
        q_el = Cylinder(z, r, CylinderShape.ELONGATED, omega=omega)
        if not _contained_in(q_el, q_minus_2):
            raise ValueError(f"Q^el_{r}(z) is not contained in Q^-[2]")
        mins.append(_region_min(sample_region(traj, q_el)))

    constants: dict = {"c_pm": params.c_pm, "min_q_plus": m_plus}
    for i, (r, m) in enumerate(zip(rs, mins), start=1):
        constants[f"r_{i}"] = r
        constants[f"min_el_{i}"] = m
        try:
            constants[f"bound_{i}"] = params.c_pm * r ** (-params.q) * m_plus
        except OverflowError:
            raise ValueError(f"q = {params.q!r}: r^(-q) overflows a float at r = {r!r}") from None
    if m_plus > 0.0:
        ratios = np.array(mins) / m_plus
        constants["q_hat"] = math.nan
        if len(rs) >= 2 and np.all(ratios > 0.0):
            slope, _ = np.polyfit(np.log(rs), np.log(ratios), 1)
            constants["q_hat"] = float(-slope)
    return ProbeReport(
        name="propagation",
        params={"q": params.q, "R": params.r, "Delta": params.delta},
        constants=constants,
        verdict="ok" if m_plus > 0.0 else "degenerate",
    )


def energy_estimate_check(traj: Trajectory, q_int: Cylinder, q_ext: Cylinder) -> ProbeReport:
    """Discrete local energy estimate on nested cylinders.

    Measures sup_t int_{Q_int^t} f^2 + int_{Q_int} |grad_v f|^2 against
    C01 int_{Q_ext} f^2 + int_{Q_ext} s^2 and reports the empirical ratio.
    """
    traj, q_int, q_ext = _native(traj, q_int, q_ext)
    _require_nested(q_int, q_ext)
    inner = sample_region(traj, q_int)
    ext = sample_region(traj, q_ext)
    cell = traj.grid.cell_volume
    sup_slice = max((float((p.values**2).sum()) * cell for p in inner), default=0.0)
    grad_int = _integrate(
        traj, inner, lambda p: gradient_v_sq(traj.values[p.n], traj.grid)[p.mask].sum()
    )
    f_sq_ext = _integrate(traj, ext, lambda p: (p.values**2).sum())
    s_sq_ext = _integrate(traj, ext, lambda p: (_source_values(traj, p) ** 2).sum())
    c01 = c01_constant(q_ext.radius, q_int.radius)
    lhs = sup_slice + grad_int
    rhs = c01 * f_sq_ext + s_sq_ext
    degenerate = rhs == 0.0
    return ProbeReport(
        name="energy",
        params={"r_int": q_int.radius, "r_ext": q_ext.radius},
        constants={
            "c01": c01,
            "sup_slice_f_sq": sup_slice,
            "grad_sq_int": grad_int,
            "f_sq_ext": f_sq_ext,
            "source_sq_ext": s_sq_ext,
            "cbar": math.nan if degenerate else lhs / rhs,
        },
        verdict="trivial" if degenerate else "ok",
    )
