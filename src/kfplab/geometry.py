"""Kinetic phase-space geometry: points, Galilean transforms, the anisotropic
scaling (x, v, t) -> (r^3 x, r v, r^2 t), cylinder families and paraboloid
covering checks.

All objects are immutable values and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.special import ndtri


def unit_ball_volume(d: int) -> float:
    """Lebesgue volume of the Euclidean unit ball in dimension d."""
    if d == 1:
        return 2.0
    if d == 2:
        return math.pi
    if d == 3:
        return 4.0 * math.pi / 3.0
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def vector_norm(b: np.ndarray) -> np.ndarray:
    """|b| over the last axis of an (n, d) array, as sqrt(b . b); where b . b
    overflows though every component is finite, as m |b / m| with m the
    largest |component|, so every other value keeps its bits."""
    norm = np.sqrt(np.einsum("ij,ij->i", b, b))
    over = np.isinf(norm) & np.isfinite(b).all(axis=-1)
    m = np.abs(b[over]).max(axis=-1, keepdims=True)
    norm[over] = m[:, 0] * np.sqrt(np.einsum("ij,ij->i", b[over] / m, b[over] / m))
    return norm


@dataclass(frozen=True)
class KineticPoint:
    """A phase-space/time point z = (x, v, t) with x, v of equal dimension."""

    x: np.ndarray
    v: np.ndarray
    t: float

    def __post_init__(self) -> None:
        x = np.atleast_1d(np.asarray(self.x, dtype=float)).copy()
        v = np.atleast_1d(np.asarray(self.v, dtype=float)).copy()
        if x.ndim != 1 or v.ndim != 1 or x.shape != v.shape:
            raise ValueError(f"x and v must be 1-d of equal length, got {x.shape} and {v.shape}")
        if x.size < 1:
            raise ValueError("dimension must be >= 1")
        x.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "t", float(self.t))

    @property
    def d(self) -> int:
        return self.x.size

    @staticmethod
    def origin(d: int = 1) -> "KineticPoint":
        return KineticPoint(np.zeros(d), np.zeros(d), 0.0)

    @staticmethod
    def of(x, v, t: float) -> "KineticPoint":
        """Build a point from scalars or sequences (scalars mean d = 1)."""
        return KineticPoint(np.atleast_1d(x), np.atleast_1d(v), t)

    def __iter__(self):
        """Unpack as the triple (x, v, t) the group law takes."""
        return iter((self.x, self.v, self.t))


def group_product(z0, z):
    """The group law z0 o z = (x0 + x + t v0, v0 + v, t0 + t).

    Both arguments are (x, v, t) triples, a KineticPoint or arrays of shape
    (..., d), (..., d), (...); either side may hold one point per sample.
    """
    x0, v0, t0 = z0
    x, v, t = z
    t = np.asarray(t, dtype=float)
    return x0 + x + t[..., None] * v0, v0 + v, t0 + t


def group_quotient(z0, z):
    """z0^{-1} o z = (x - x0 - (t - t0) v0, v - v0, t - t0): z in the frame of z0.

    Takes the triples :func:`group_product` takes.
    """
    x0, v0, t0 = z0
    x, v, t = z
    dt = np.asarray(t, dtype=float) - t0
    return x - x0 - dt[..., None] * v0, v - v0, dt


@dataclass(frozen=True)
class GalileanTransform:
    """The equation-invariant change of frame z -> base o z."""

    base: KineticPoint

    def _same_d(self, z: KineticPoint) -> KineticPoint:
        if z.d != self.base.d:
            raise ValueError(f"dimension mismatch: transform d={self.base.d}, point d={z.d}")
        return z

    def apply(self, z: KineticPoint) -> KineticPoint:
        return KineticPoint(*group_product(self.base, self._same_d(z)))

    def apply_inverse(self, z: KineticPoint) -> KineticPoint:
        return KineticPoint(*group_quotient(self.base, self._same_d(z)))


def compose(z0: KineticPoint, z1: KineticPoint) -> KineticPoint:
    """Group product z0 o z1 = T_{z0}(z1)."""
    return GalileanTransform(z0).apply(z1)


def scale_point(r: float, z: KineticPoint) -> KineticPoint:
    """The kinetic scaling (x, v, t) -> (r^3 x, r v, r^2 t)."""
    if r <= 0:
        raise ValueError(f"scaling factor must be positive, got {r}")
    return KineticPoint(r**3 * z.x, r * z.v, r**2 * z.t)


class CylinderShape(Enum):
    SLANTED = "slanted"
    CUBE = "cube"
    ELONGATED = "elongated"
    ITERATED = "iterated"


# Membership collar: strict window boundaries are evaluated with this margin
# so that points lying exactly on a boundary (grid nodes, snapshot times) keep
# their verdict under floating-point changes of frame.  The collar is far
# below any grid spacing, so only exact-boundary points are affected: open
# sides stay excluded, the closed top time stays included.
BOUNDARY_COLLAR = 1e-12


def collared_windows(wx: float, wv: float, t_lo: float, t_hi: float):
    """Shrink open windows and extend the closed time top by the collar."""
    cx = min(BOUNDARY_COLLAR, 0.5 * wx)
    cv = min(BOUNDARY_COLLAR, 0.5 * wv)
    ct = min(BOUNDARY_COLLAR, 0.25 * (t_hi - t_lo))
    return wx - cx, wv - cv, t_lo + ct, t_hi + ct


def iterated_radius(k: int, omega: float) -> float:
    """R_k = (omega/4) 2^k of the iterated doubling cylinders."""
    return (omega / 4.0) * 2.0**k


def iterated_times(k: int) -> tuple[float, float]:
    """Time window (T_{k-1}, T_k] with T_k = (4/3)(4^k - 1)."""
    try:
        t_hi = (4.0 / 3.0) * (4.0**k - 1.0)
    except OverflowError:
        raise ValueError(f"T_k = (4/3)(4^k - 1) overflows a float at k = {k}") from None
    t_lo = (4.0 / 3.0) * (4.0 ** (k - 1) - 1.0) if k >= 1 else 0.0
    return t_lo, t_hi


@dataclass(frozen=True)
class Cylinder:
    """A kinetic cylinder centred at ``center`` with radius ``r``.

    Membership is evaluated in the centre's co-moving frame: with
    y = (x - x0 - (t - t0) v0, v - v0, t - t0) the unit-scale windows are

    - SLANTED:   |y_x| < r^3 (Euclidean), |y_v| < r, -r^2 < y_t <= 0
    - CUBE:      per coordinate |y_x,i| < r^3, |y_v,i| < r, -r^2 < y_t <= 0
    - ELONGATED: |y_x| < (omega/4)^3 r^3, |y_v| < (omega/4) r, -r^2 < y_t <= 0
      (time is stretched relative to the (omega/4) r spatial radius)
    - ITERATED:  |y_x| < (r R_k)^3, |y_v| < r R_k, r^2 T_{k-1} < y_t <= r^2 T_k

    For centres with zero velocity the co-moving frame coincides with the
    literal axis-aligned windows; in general the frame keeps every family
    covariant under the Galilean group action.
    """

    center: KineticPoint
    radius: float
    shape: CylinderShape = CylinderShape.SLANTED
    omega: float = 0.25
    k: int = 0

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.shape in (CylinderShape.ELONGATED, CylinderShape.ITERATED):
            if not 0.0 < self.omega < 0.5:
                raise ValueError(f"omega must lie in (0, 1/2), got {self.omega}")
        if self.shape is CylinderShape.ITERATED and self.k < 1:
            raise ValueError(f"iterated cylinder index must be >= 1, got {self.k}")
        try:
            wx, wv, t_lo, t_hi = self.windows()
            ok = wx > 0.0 and wv > 0.0 and all(map(math.isfinite, (wx, wv, t_lo, t_hi)))
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(f"radius {self.radius!r} gives windows that overflow or vanish")

    @property
    def d(self) -> int:
        return self.center.d

    def windows(self) -> tuple[float, float, float, float]:
        """(x half-width, v half-width, t lower, t upper) in the centre frame."""
        r = self.radius
        if self.shape is CylinderShape.SLANTED or self.shape is CylinderShape.CUBE:
            return r**3, r, -(r**2), 0.0
        if self.shape is CylinderShape.ELONGATED:
            f = self.omega / 4.0
            return (f * r) ** 3, f * r, -(r**2), 0.0
        rk = iterated_radius(self.k, self.omega)
        t_lo, t_hi = iterated_times(self.k)
        return (r * rk) ** 3, r * rk, r**2 * t_lo, r**2 * t_hi

    def per_coordinate(self) -> bool:
        """Whether the spatial windows apply coordinate-wise (cube family)."""
        return self.shape is CylinderShape.CUBE

    def contains(self, z: KineticPoint) -> bool:
        if z.d != self.d:
            raise ValueError(f"dimension mismatch: cylinder d={self.d}, point d={z.d}")
        return bool(
            self.contains_arrays(z.x[None, :], z.v[None, :], np.asarray([z.t]))[0]
        )

    def contains_arrays(self, xs: np.ndarray, vs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Vectorized membership on arrays of shape (..., d) / (...,)."""
        yx, yv, dt = group_quotient(self.center, (xs, vs, ts))
        wx, wv, t_lo, t_hi = collared_windows(*self.windows())
        in_t = (dt > t_lo) & (dt <= t_hi)
        if self.shape is CylinderShape.CUBE:
            in_x = np.all(np.abs(yx) < wx, axis=-1)
            in_v = np.all(np.abs(yv) < wv, axis=-1)
        else:
            in_x = np.einsum("...i,...i->...", yx, yx) < wx**2
            in_v = np.einsum("...i,...i->...", yv, yv) < wv**2
        return in_x & in_v & in_t

    def measure(self) -> float:
        """Exact (2d+1)-dimensional Lebesgue measure of the cylinder."""
        d = self.d
        wx, wv, t_lo, t_hi = self.windows()
        depth = t_hi - t_lo
        if self.shape is CylinderShape.CUBE:
            return (2.0 * wx) ** d * (2.0 * wv) ** d * depth
        vb = unit_ball_volume(d)
        return vb * wx**d * vb * wv**d * depth

    def transformed(self, z0: KineticPoint) -> "Cylinder":
        """The cylinder moved by the group action T_{z0}."""
        return replace(self, center=compose(z0, self.center))


def iterated_cylinder(k: int, omega: float, d: int = 1) -> Cylinder:
    """Q^k = B_{R_k^3} x B_{R_k} x (T_{k-1}, T_k] at unit scale, origin centred."""
    if k < 1:
        raise ValueError(f"iterated cylinder index must be >= 1, got {k}")
    return Cylinder(KineticPoint.origin(d), 1.0, CylinderShape.ITERATED, omega=omega, k=k)


@dataclass(frozen=True)
class Paraboloid:
    """Paraboloid-shaped region sandwiching the union of iterated cylinders.

    With rho = max(|w|, |y|^{1/3}) the inner (-) set requires
    s >= (4/3)((16/omega^2) rho^2 - 1) and the outer (+) set requires
    s >= (4/3)((4/omega^2) rho^2 - 1); when |y| <= |w|^3 this reduces to
    the conditions at rho = |w|.
    """

    sign: int
    omega: float

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError("sign must be -1 (inner) or +1 (outer)")
        if not 0.0 < self.omega:
            raise ValueError("omega must be positive")

    @property
    def _factor(self) -> float:
        return (16.0 if self.sign < 0 else 4.0) / self.omega**2

    def time_floor(self, ys: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """The least unit-scale s with (y, w, s) inside: (4/3)(c rho^2 - 1)."""
        wn = np.sqrt(np.einsum("...i,...i->...", ws, ws))
        yn = np.sqrt(np.einsum("...i,...i->...", ys, ys))
        rho = np.maximum(wn, np.cbrt(yn))
        return (4.0 / 3.0) * (self._factor * rho**2 - 1.0)

    def contains_arrays(self, ys: np.ndarray, ws: np.ndarray, ss: np.ndarray) -> np.ndarray:
        ys, ws = np.asarray(ys, dtype=float), np.asarray(ws, dtype=float)
        return np.asarray(ss, dtype=float) >= self.time_floor(ys, ws)


def _ball_from_uniform(u_dir: np.ndarray, u_rad: np.ndarray, radius) -> np.ndarray:
    """Map uniforms to uniform samples of the ball of given radius (broadcasts)."""
    g = ndtri(np.clip(u_dir, 1e-12, 1.0 - 1e-12))
    norm = np.sqrt(np.einsum("...i,...i->...", g, g))
    norm = np.where(norm == 0.0, 1.0, norm)
    d = u_dir.shape[-1]
    rad = np.asarray(radius) * u_rad ** (1.0 / d)
    return g * (rad / norm)[..., None]


def halton(dims: int, n: int, seed: int | None) -> np.ndarray:
    """The first n points of a scrambled Halton sequence in [0, 1)^dims.

    Column j is the radical inverse of 0, 1, ..., n - 1 in the j-th prime base
    b, with its k-th digit sent through its own random permutation of
    range(b) (Owen, "A randomized Halton algorithm in R", arXiv:1706.02808).
    ``np.random.default_rng(seed)`` draws ceil(54 / log2 b) - 1 permutations
    per base, base by base, which reproduces
    ``scipy.stats.qmc.Halton(d=dims, seed=seed).random(n)`` bit for bit.
    """
    bases: list[int] = []
    b = 2
    while len(bases) < dims:
        if all(b % p for p in bases):
            bases.append(b)
        b += 1
    rng = np.random.default_rng(seed)
    out = np.zeros((dims, n))
    for row, b in zip(out, bases):
        q, f = np.arange(n), 1.0 / b
        for _ in range(math.ceil(54 / math.log2(b)) - 1):
            row += rng.permutation(b)[q % b] * f
            f /= b
            q //= b
    # column-major like scipy's result: reductions over the sample columns
    # round differently on a C-ordered copy
    return out.T


@dataclass(frozen=True)
class CoveringReport:
    """Outcome of the paraboloid covering checks for the doubling geometry."""

    params: dict
    claim_a_checked: int
    claim_a_skipped: int
    claim_a_counterexamples: tuple
    claim_b_hypothesis_met: bool
    claim_b_threshold: float
    claim_b_checked: int
    claim_b_counterexamples: tuple

    @property
    def verdict_a(self) -> str:
        return "pass" if not self.claim_a_counterexamples else "fail"

    @property
    def verdict_b(self) -> str:
        if not self.claim_b_hypothesis_met:
            return "hypothesis unmet"
        return "pass" if not self.claim_b_counterexamples else "fail"

    def to_dict(self) -> dict:
        return {
            "params": self.params,
            "claim_a": {
                "checked": self.claim_a_checked,
                "skipped": self.claim_a_skipped,
                "counterexamples": [list(map(float, c)) for c in self.claim_a_counterexamples],
                "verdict": self.verdict_a,
            },
            "claim_b": {
                "hypothesis_met": self.claim_b_hypothesis_met,
                "threshold": self.claim_b_threshold,
                "checked": self.claim_b_checked,
                "counterexamples": [list(map(float, c)) for c in self.claim_b_counterexamples],
                "verdict": self.verdict_b,
            },
        }


def covering_threshold(r_plus: float, omega: float) -> float:
    """Sufficient lower bound on the time gap: R^2 + (4^3 / (3 omega^2)) (4R)^{1/3}."""
    return r_plus**2 + (64.0 / (3.0 * omega**2)) * (4.0 * r_plus) ** (1.0 / 3.0)


def verify_covering(
    delta: float,
    r_plus: float,
    r0: float,
    omega: float = 0.25,
    n_samples: int = 10_000,
    d: int = 1,
    seed: int = 0,
) -> CoveringReport:
    """Sample-check the two covering claims behind the doubling geometry.

    Claim (a): for z in Q^- = Q_R(0, 0, -delta) and r < r0, the part of
    z o (r P^+) at non-positive times lies inside Q_1(0).

    Claim (b): for z in Q^-, z+ in Q^+ = Q_R and r < r0, the group
    difference z^{-1} o z+ lies in r P^-; checked only when the sufficient
    condition delta >= R^2 + (4^3/(3 omega^2)) (4R)^{1/3} holds, otherwise
    reported as "hypothesis unmet" with no verdict.

    Sampling is quasi-random: ``halton(6 (d + 1) + 5, n_samples, seed)``, a
    scrambled Halton sequence drawn from ``np.random.default_rng(seed)``, so
    failures are reproducible per seed.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not 0.0 < r_plus <= math.sqrt(delta):
        raise ValueError(f"R must lie in (0, sqrt(delta)], got {r_plus}")
    if not 0.0 < r0 <= math.sqrt(delta):
        raise ValueError(f"r0 must lie in (0, sqrt(delta)], got {r0}")
    if not 0.0 < omega < 0.5 or omega**2 < 16.0 / np.finfo(float).max:
        raise ValueError(f"omega must lie in (0, 1/2) with 16 / omega^2 finite, got {omega}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")

    q_unit = Cylinder(KineticPoint.origin(d), 1.0)

    # Halton dims: z in Q^- (2 balls + time), r, paraboloid point
    # (rho, w ball, y ball, s), z+ in Q^+ (2 balls + time); a ball costs d+1.
    dims = 6 * (d + 1) + 5
    u = halton(dims, n_samples, seed)
    col = 0

    def take(k: int) -> np.ndarray:
        nonlocal col
        block = u[:, col : col + k]
        col += k
        return block

    # z in Q^-
    zx = _ball_from_uniform(take(d), take(1)[:, 0], r_plus**3)
    zv = _ball_from_uniform(take(d), take(1)[:, 0], r_plus)
    zt = -delta - r_plus**2 * take(1)[:, 0]
    rs = r0 * np.maximum(take(1)[:, 0], 1e-9)

    # paraboloid sample at unit scale, capped so the composed time can reach <= 0
    s_cap = (delta + r_plus**2) / rs**2
    rho_max = (omega / 2.0) * np.sqrt(np.maximum(3.0 * s_cap / 4.0 + 1.0, 0.0))
    rho = rho_max * np.maximum(take(1)[:, 0], 1e-9)
    pw = _ball_from_uniform(take(d), take(1)[:, 0], rho)
    py = _ball_from_uniform(take(d), take(1)[:, 0], rho**3)
    s_lo = Paraboloid(+1, omega).time_floor(py, pw)
    ps = s_lo + (s_cap - s_lo) * take(1)[:, 0]

    # q = z o delta_r(p)
    r_col = rs[:, None]
    qx, qv, qt = group_product((zx, zv, zt), (r_col**3 * py, r_col * pw, rs**2 * ps))

    relevant = qt <= 0.0
    inside = q_unit.contains_arrays(qx, qv, qt)
    bad_a = relevant & ~inside
    counter_a = tuple(
        (float(qx[i, 0]), float(qv[i, 0]), float(qt[i])) for i in np.flatnonzero(bad_a)[:5]
    )

    # claim b
    threshold = covering_threshold(r_plus, omega)
    hypothesis_met = delta >= threshold
    checked_b = 0
    counter_b: tuple = ()
    px = _ball_from_uniform(take(d), take(1)[:, 0], r_plus**3)
    pv = _ball_from_uniform(take(d), take(1)[:, 0], r_plus)
    pt = -(r_plus**2) * take(1)[:, 0]
    if hypothesis_met:
        # y = z^{-1} o z+, tested against r P^- at the per-sample scale r
        yx, yv, yt = group_quotient((zx, zv, zt), (px, pv, pt))
        ok = Paraboloid(-1, omega).contains_arrays(yx / r_col**3, yv / r_col, yt / rs**2)
        checked_b = n_samples
        counter_b = tuple(
            (float(yx[i, 0]), float(yv[i, 0]), float(yt[i])) for i in np.flatnonzero(~ok)[:5]
        )

    return CoveringReport(
        params={
            "delta": delta,
            "R": r_plus,
            "r0": r0,
            "omega": omega,
            "n_samples": n_samples,
            "d": d,
            "seed": seed,
        },
        claim_a_checked=int(np.count_nonzero(relevant)),
        claim_a_skipped=int(np.count_nonzero(~relevant)),
        claim_a_counterexamples=counter_a,
        claim_b_hypothesis_met=bool(hypothesis_met),
        claim_b_threshold=float(threshold),
        claim_b_checked=checked_b,
        claim_b_counterexamples=counter_b,
    )
