"""Collision coefficient fields of Landau type, computed by discrete
convolution on a uniform velocity grid, plus hydrodynamic moments and the
determinant/size bound checks.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft
from scipy.signal import fftconvolve

from .geometry import unit_ball_volume
from .iteration import kappa_exponent


@dataclass(frozen=True)
class LandauParams:
    """Interaction parameters: dimension, power gamma and the three constants.

    The physical normalisation constants are never pinned down by the theory
    (all bounds hold up to them), so they default to 1 and stay configurable.
    """

    d: int
    gamma: float
    a_const: float = 1.0
    b_const: float = 1.0
    c_const: float = 1.0

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if not -self.d <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [-d, 1], got {self.gamma}")
        if min(self.a_const, self.b_const, self.c_const) <= 0:
            raise ValueError("normalisation constants must be positive")
        if self.gamma > 0.0:
            warnings.warn(
                "hard potentials (gamma > 0) accepted; velocity moments beyond the "
                "energy are assumed finite",
                stacklevel=2,
            )


@dataclass(frozen=True)
class VelocityGrid:
    """Uniform cell-centred grid on [-v_max, v_max]^d with n cells per axis."""

    v_max: float
    n: int
    d: int

    def __post_init__(self) -> None:
        if self.v_max <= 0 or self.n < 2 or self.d < 1:
            raise ValueError("need v_max > 0, n >= 2, d >= 1")

    @property
    def h(self) -> float:
        return 2.0 * self.v_max / self.n

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    def axis(self) -> np.ndarray:
        return -self.v_max + (np.arange(self.n) + 0.5) * self.h

    def points(self) -> np.ndarray:
        """All grid points, shape (n^d, d)."""
        axes = np.meshgrid(*([self.axis()] * self.d), indexing="ij")
        return np.stack([a.ravel() for a in axes], axis=-1)

    def index_of(self, v) -> tuple[int, ...]:
        """Index of a grid point; raises if v is not a node of the grid."""
        v = np.atleast_1d(np.asarray(v, dtype=float))
        if v.size != self.d:
            raise ValueError(f"point has dimension {v.size}, grid has {self.d}")
        raw = (v + self.v_max) / self.h - 0.5
        idx = np.rint(raw).astype(int)
        if np.any(idx < 0) or np.any(idx >= self.n) or np.any(np.abs(raw - idx) > 1e-9):
            raise ValueError(f"{v} is not a grid point of [-{self.v_max}, {self.v_max}]^{self.d}")
        return tuple(int(i) for i in idx)


@dataclass(frozen=True)
class VelocityGridFunction:
    """Non-negative density samples on a velocity grid."""

    grid: VelocityGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,) * self.grid.d:
            raise ValueError(f"values shape {vals.shape} does not match grid {self.grid}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        if np.any(vals < 0.0):
            raise ValueError("density values must be non-negative")
        object.__setattr__(self, "values", vals)


def maxwellian(grid: VelocityGrid, sigma: float = 1.0, mass: float = 1.0) -> VelocityGridFunction:
    """Isotropic Gaussian density with unit-integral normalisation in the limit."""
    pts = grid.points()
    sq = np.einsum("ij,ij->i", pts, pts)
    vals = mass * np.exp(-sq / (2.0 * sigma**2)) / (2.0 * math.pi * sigma**2) ** (grid.d / 2.0)
    return VelocityGridFunction(grid, vals.reshape((grid.n,) * grid.d))


def moments(f: VelocityGridFunction) -> tuple[float, float, float]:
    """Local mass, energy and entropy (M, E, H), with 0 log 0 = 0."""
    grid = f.grid
    w = grid.cell_volume
    vals = f.values.ravel()
    pts = grid.points()
    sq = np.einsum("ij,ij->i", pts, pts)
    m = float(vals.sum() * w)
    e = float(0.5 * (vals * sq).sum() * w)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(vals > 0.0, vals * np.log(np.where(vals > 0.0, vals, 1.0)), 0.0)
    h = float(plogp.sum() * w)
    return m, e, h


def _offset_lattice(grid: VelocityGrid) -> np.ndarray:
    """Offsets w = k h for k in [-(n-1), n-1]^d, shape (2n-1, ..., 2n-1, d)."""
    k = np.arange(-(grid.n - 1), grid.n) * grid.h
    axes = np.meshgrid(*([k] * grid.d), indexing="ij")
    return np.stack(axes, axis=-1)


def _singular_cell_average(grid: VelocityGrid, gamma: float) -> float:
    """Cell average of |w|^gamma over the w = 0 cell.

    Evaluated analytically over the volume-equivalent ball (exact for d = 1),
    which preserves first-order quadrature convergence of the integrable
    singularity.
    """
    if gamma <= -grid.d:
        raise ValueError("kernel |w|^gamma is not integrable at the origin")
    if gamma == 0.0:
        return 1.0
    d = grid.d
    vb = unit_ball_volume(d)
    r_eq = grid.h / vb ** (1.0 / d)
    integral = d * vb * r_eq ** (gamma + d) / (gamma + d)
    return integral / grid.h**d


def kernel_a(grid: VelocityGrid, params: LandauParams) -> np.ndarray:
    """Projection kernel (I - what x what) |w|^{gamma+2} on the offset lattice.

    The w = 0 cell contributes 0: the directional factor is undefined there and
    the kernel is integrable, so the omitted cell vanishes under refinement.
    """
    if params.gamma + 2.0 <= -grid.d:
        raise ValueError("gamma + 2 must exceed -d for an integrable kernel")
    w = _offset_lattice(grid)
    sq = np.einsum("...i,...i->...", w, w)
    safe = np.where(sq > 0.0, sq, 1.0)
    proj = np.eye(grid.d) - w[..., :, None] * w[..., None, :] / safe[..., None, None]
    radial = np.where(sq > 0.0, safe ** ((params.gamma + 2.0) / 2.0), 0.0)
    return proj * radial[..., None, None]


def kernel_b(grid: VelocityGrid, params: LandauParams) -> np.ndarray:
    """Vector kernel |w|^gamma w on the offset lattice (0 at w = 0)."""
    w = _offset_lattice(grid)
    sq = np.einsum("...i,...i->...", w, w)
    safe = np.where(sq > 0.0, sq, 1.0)
    radial = np.where(sq > 0.0, safe ** (params.gamma / 2.0), 0.0)
    return w * radial[..., None]


def kernel_c(grid: VelocityGrid, params: LandauParams) -> np.ndarray:
    """Scalar kernel |w|^gamma with the singular cell replaced by its average."""
    if params.gamma <= -grid.d:
        raise ValueError("pointwise kernel only exists for gamma > -d")
    w = _offset_lattice(grid)
    sq = np.einsum("...i,...i->...", w, w)
    safe = np.where(sq > 0.0, sq, 1.0)
    vals = np.where(sq > 0.0, safe ** (params.gamma / 2.0), 0.0)
    center = tuple([grid.n - 1] * grid.d)
    vals[center] = _singular_cell_average(grid, params.gamma)
    return vals


def convolve_direct(f: VelocityGridFunction, kernel: np.ndarray, periodic: bool = False) -> np.ndarray:
    """O(N^2) summation oracle: out[i] = h^d sum_k kernel(k) f[i - k].

    ``kernel`` lives on the offset lattice (2n-1 per axis, trailing component
    axes allowed).  Zero padding outside the box unless ``periodic``.
    """
    grid, vals = f.grid, f.values
    n, d = grid.n, grid.d
    comp_shape = kernel.shape[d:]
    out = np.zeros(vals.shape + comp_shape)
    for idx in itertools.product(range(2 * n - 1), repeat=d):
        offs = tuple(i - (n - 1) for i in idx)
        kv = kernel[idx]
        if not np.any(kv):
            continue
        if periodic:
            shifted = np.roll(vals, shift=offs, axis=tuple(range(d)))
        else:
            shifted = np.zeros_like(vals)
            src = tuple(
                slice(max(0, -o), n - max(0, o)) for o in offs
            )
            dst = tuple(
                slice(max(0, o), n - max(0, -o)) for o in offs
            )
            shifted[dst] = vals[src]
        out += shifted[(...,) + (None,) * len(comp_shape)] * kv
    return out * grid.cell_volume


def convolve_fft(f: VelocityGridFunction, kernel: np.ndarray, periodic: bool = False) -> np.ndarray:
    """FFT evaluation of the same lattice convolution as ``convolve_direct``."""
    grid, vals = f.grid, f.values
    n, d = grid.n, grid.d
    comp_shape = kernel.shape[d:]
    out = np.empty(vals.shape + comp_shape)
    if periodic:
        fhat = sp_fft.fftn(vals)
    for comp in itertools.product(*[range(s) for s in comp_shape]):
        ker = kernel[(...,) + comp]
        if periodic:
            folded = np.zeros_like(vals)
            idx_axes = [np.arange(-(n - 1), n) % n for _ in range(d)]
            mesh = np.meshgrid(*idx_axes, indexing="ij")
            np.add.at(folded, tuple(mesh), ker)
            conv = sp_fft.ifftn(fhat * sp_fft.fftn(folded)).real
        else:
            conv = fftconvolve(vals, ker, mode="valid")
        out[(...,) + comp] = conv
    return out * grid.cell_volume


def landau_a_field(
    f: VelocityGridFunction,
    params: LandauParams,
    method: str = "fft",
    periodic: bool = False,
) -> np.ndarray:
    """Diffusion matrices A[f] at every grid point, shape (n, ..., n, d, d)."""
    _check_dims(f, params)
    conv = convolve_fft if method == "fft" else convolve_direct
    out = params.a_const * conv(f, kernel_a(f.grid, params), periodic=periodic)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def landau_b_field(
    f: VelocityGridFunction,
    params: LandauParams,
    method: str = "fft",
    periodic: bool = False,
) -> np.ndarray:
    """Drift vectors B[f] at every grid point, shape (n, ..., n, d)."""
    _check_dims(f, params)
    conv = convolve_fft if method == "fft" else convolve_direct
    return params.b_const * conv(f, kernel_b(f.grid, params), periodic=periodic)


def landau_c_field(
    f: VelocityGridFunction,
    params: LandauParams,
    method: str = "fft",
    periodic: bool = False,
) -> np.ndarray:
    """Reaction coefficients c[f]; pointwise c f in the Coulomb-type case gamma = -d."""
    _check_dims(f, params)
    if params.gamma == -params.d:
        return params.c_const * f.values.copy()
    conv = convolve_fft if method == "fft" else convolve_direct
    return params.c_const * conv(f, kernel_c(f.grid, params), periodic=periodic)


def landau_a(f: VelocityGridFunction, params: LandauParams, v) -> np.ndarray:
    """A[f] at one grid point v."""
    return landau_a_field(f, params)[f.grid.index_of(v)]


def landau_c(f: VelocityGridFunction, params: LandauParams, v) -> float:
    """c[f] at one grid point v (exactly c_const * f(v) when gamma = -d)."""
    idx = f.grid.index_of(v)
    if params.gamma == -params.d:
        return float(params.c_const * f.values[idx])
    return float(landau_c_field(f, params)[idx])


def _check_dims(f: VelocityGridFunction, params: LandauParams) -> None:
    if f.grid.d != params.d:
        raise ValueError(f"grid dimension {f.grid.d} does not match params d={params.d}")


@dataclass(frozen=True)
class MomentBounds:
    """Admissible window for (mass, energy, entropy): m1 <= M <= m0, E <= e0, H <= h0."""

    m1: float
    m0: float
    e0: float
    h0: float

    def __post_init__(self) -> None:
        if not 0.0 < self.m1 <= self.m0:
            raise ValueError(f"need 0 < m1 <= m0, got {self.m1}, {self.m0}")
        if self.e0 <= 0.0:
            raise ValueError(f"need e0 > 0, got {self.e0}")

    def admits(self, m: float, e: float, h: float) -> bool:
        return self.m1 <= m <= self.m0 and e <= self.e0 and h <= self.h0


@dataclass(frozen=True)
class BoundsReport:
    """Measured coefficient bounds against their predicted shapes."""

    kappa: float
    det_ratio_min: float          # min over grid of det A / (1 + |v|)^kappa
    det_ratio_argmin: tuple
    a_norm_ratio_max: float       # |A| against its predicted envelope
    b_norm_ratio_max: float
    c_ratio_max: float
    moments: tuple[float, float, float]
    verdict: str

    def to_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "det_ratio_min": self.det_ratio_min,
            "det_ratio_argmin": [float(x) for x in self.det_ratio_argmin],
            "a_norm_ratio_max": self.a_norm_ratio_max,
            "b_norm_ratio_max": self.b_norm_ratio_max,
            "c_ratio_max": self.c_ratio_max,
            "moments": [float(m) for m in self.moments],
            "verdict": self.verdict,
        }


def check_coefficient_bounds(
    f: VelocityGridFunction, params: LandauParams, bounds: MomentBounds
) -> BoundsReport:
    """Measure det A / (1+|v|)^kappa and the coefficient size envelopes.

    kappa = (d-1)(gamma+2) + gamma for gamma in [-2, 0] and 3 gamma + 2 for
    gamma in [-d, -2).  The moment window is a precondition.
    """
    _check_dims(f, params)
    m, e, h = moments(f)
    if not bounds.admits(m, e, h):
        raise ValueError(
            f"moments (M={m:.4g}, E={e:.4g}, H={h:.4g}) violate the admissible window"
        )
    gamma, d = params.gamma, params.d
    kappa = kappa_exponent(gamma, d)

    pts = f.grid.points()
    speed = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    a_field = landau_a_field(f, params).reshape(-1, d, d)
    eigs = np.linalg.eigvalsh(a_field)
    det = np.prod(eigs, axis=-1)
    a_norm = np.abs(eigs).max(axis=-1)
    b_field = landau_b_field(f, params).reshape(-1, d)
    b_norm = np.sqrt(np.einsum("ij,ij->i", b_field, b_field))
    c_vals = np.abs(landau_c_field(f, params).ravel())
    sup_f = float(f.values.max())

    det_ratio = det / (1.0 + speed) ** kappa
    i_min = int(np.argmin(det_ratio))

    if gamma >= -2.0:
        a_env = (1.0 + speed) ** (gamma + 2.0)
    else:
        a_env = np.full_like(speed, max(sup_f, 1e-300) ** (abs(gamma + 2.0) / d))
    if gamma >= -1.0:
        b_env = (1.0 + speed) ** (gamma + 1.0)
    else:
        b_env = np.full_like(speed, max(sup_f, 1e-300) ** (abs(gamma + 1.0) / d))
    if gamma == 0.0:
        c_env = np.ones_like(speed)
    else:
        c_env = np.full_like(speed, max(sup_f, 1e-300) ** (abs(gamma) / d))

    det_ratio_min = float(det_ratio[i_min])
    return BoundsReport(
        kappa=float(kappa),
        det_ratio_min=det_ratio_min,
        det_ratio_argmin=tuple(float(x) for x in pts[i_min]),
        a_norm_ratio_max=float((a_norm / a_env).max()),
        b_norm_ratio_max=float((b_norm / b_env).max()),
        c_ratio_max=float((c_vals / c_env).max()),
        moments=(m, e, h),
        verdict="ok" if det_ratio_min > 0.0 else "degenerate",
    )
