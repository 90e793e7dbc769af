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
                stacklevel=3,
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


def maxwellian(grid: VelocityGrid, sigma: float = 1.0) -> VelocityGridFunction:
    """Isotropic Gaussian density with unit-integral normalisation in the limit."""
    pts = grid.points()
    sq = np.einsum("ij,ij->i", pts, pts)
    vals = np.exp(-sq / (2.0 * sigma**2)) / (2.0 * math.pi * sigma**2) ** (grid.d / 2.0)
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
    if grid.cell_volume == 0.0:
        raise ValueError(f"{grid}: its cell volume h^{grid.d} underflows to 0.0")
    d = grid.d
    vb = unit_ball_volume(d)
    r_eq = grid.h / vb ** (1.0 / d)
    integral = d * vb * r_eq ** (gamma + d) / (gamma + d)
    return integral / grid.cell_volume


def kernel_a(grid: VelocityGrid, params: LandauParams) -> np.ndarray:
    """Projection kernel (I - what x what) |w|^{gamma+2} on the offset lattice.

    The w = 0 cell contributes 0: the directional factor is undefined there and
    the kernel is integrable, so the omitted cell vanishes under refinement.
    """
    return _from_upper(_kernel_a_upper(grid, params), grid.d)


def _kernel_a_upper(grid: VelocityGrid, params: LandauParams) -> np.ndarray:
    """The components i <= j of ``kernel_a`` in ``np.triu_indices`` order.

    w_i w_j commutes, so the kernel is symmetric bit for bit and these
    d(d+1)/2 components determine it.  They are computed on the orthant
    k >= 0 and mirrored (``_mirror``).  The diagonal is even.  A_ij with
    i != j is odd in axes i and j: it is (0.0 - p) r with p = w_i w_j / |w|^2,
    and flipping w_i or w_j flips p, so the mirror takes 0.0 - x.  That is
    the lattice value bit for bit, also where p = 0 and both are +0.0, which
    -x would turn into -0.0.
    """
    if params.gamma + 2.0 <= -grid.d:
        raise ValueError("gamma + 2 must exceed -d for an integrable kernel")
    i, j = np.triu_indices(grid.d)
    w, safe, radial = _orthant_radial(grid, params.gamma + 2.0)
    proj = np.eye(grid.d)[i, j] - w[..., i] * w[..., j] / safe[..., None]
    axes = np.arange(grid.d)[:, None]
    return _mirror(proj * radial[..., None], grid.d, (i == axes) != (j == axes),
                   lambda x, out: np.subtract(0.0, x, out=out))


def _from_upper(upper: np.ndarray, d: int) -> np.ndarray:
    """Symmetric (..., d, d) matrices from their components i <= j."""
    i, j = np.triu_indices(d)
    out = np.empty(upper.shape[:-1] + (d, d))
    out[..., i, j] = upper
    out[..., j, i] = upper
    return out


def kernel_b(grid: VelocityGrid, params: LandauParams) -> np.ndarray:
    """Vector kernel |w|^gamma w on the offset lattice (0 at w = 0).

    Computed on the orthant k >= 0 and mirrored.  B_m is odd in axis m and
    (-w_m) r is -(w_m r) bit for bit, so the mirror takes -x.  0.0 - x
    would differ where w_m r underflows to 0, as on a grid with h ~ 1e-300.
    """
    w, _, radial = _orthant_radial(grid, params.gamma)
    return _mirror(w * radial[..., None], grid.d, np.eye(grid.d, dtype=bool), np.negative)


def kernel_c(grid: VelocityGrid, params: LandauParams) -> np.ndarray:
    """Scalar kernel |w|^gamma with the singular cell replaced by its average.

    Even in every axis: computed on the orthant k >= 0 and mirrored.
    """
    if params.gamma <= -grid.d:
        raise ValueError("pointwise kernel only exists for gamma > -d")
    _, _, vals = _orthant_radial(grid, params.gamma)
    vals[(0,) * grid.d] = _singular_cell_average(grid, params.gamma)
    return _mirror(vals, grid.d)


def _orthant_radial(grid: VelocityGrid, power: float):
    """On the orthant w = k h, k in [0, n-1]^d: w (shape (n, ..., n, d)),
    |w|^2 with 1 at w = 0, and |w|^power with 0 at w = 0."""
    k = np.arange(grid.n) * grid.h
    w = np.stack(np.meshgrid(*([k] * grid.d), indexing="ij"), axis=-1)
    sq = np.einsum("...i,...i->...", w, w)
    safe = np.where(sq > 0.0, sq, 1.0)
    radial = np.where(sq > 0.0, safe ** (power / 2.0), 0.0)
    return w, safe, radial


def _mirror(half: np.ndarray, d: int, odd: np.ndarray | None = None, negate=None) -> np.ndarray:
    """A kernel on the offset lattice k in [-(n-1), n-1]^d from its values
    ``half`` on the orthant k >= 0.

    Each of the 2^d orthants is written straight from ``half``, reversed on
    the axes it flips; ``odd[axis, c]`` marks a trailing component c that is
    odd in ``axis``, and one that flips an odd number of them then goes
    through ``negate(x, out=x)``.  A scalar kernel, even in every axis, has
    no ``odd``.  Reading only ``half`` keeps numpy from buffering an
    overlapping copy of the kernel.
    """
    n = half.shape[0]
    full = np.empty((2 * n - 1,) * d + half.shape[d:])
    for flips in itertools.product((False, True), repeat=d):
        dst = full[tuple(slice(None, n - 1) if flip else slice(n - 1, None) for flip in flips)]
        dst[...] = half[tuple(slice(None, 0, -1) if flip else slice(None) for flip in flips)]
        if odd is not None:
            for comp in np.flatnonzero(odd[list(flips)].sum(axis=0) % 2):
                negate(dst[..., comp], out=dst[..., comp])
    return full


def convolve_fft(f: VelocityGridFunction, kernel: np.ndarray) -> np.ndarray:
    """FFT evaluation of the lattice convolution
    out[i] = h^d sum_k kernel(k) f[i - k], with f zero outside the box.

    Circular convolution of length L = ``next_fast_len(2n - 1)`` per axis.
    The linear convolution of the n density values with the 2n - 1 kernel
    offsets is nonzero only on [0, 3n - 3]; length L folds outputs [L, 3n - 3]
    onto [0, 3n - 3 - L], which lies below the n "valid" outputs
    [n - 1, 2n - 2] exactly when L >= 2n - 1 (overlap-save).  Those outputs
    are therefore the linear ones, up to rounding; the tests check them
    against the O(N^2) direct sum and against ``scipy.signal.fftconvolve``.
    The density is transformed once per call; each kernel component goes
    through ``_valid_convolution``, which skips the padding.
    """
    return _convolve(f, kernel, None)


def _density_spectrum(f: VelocityGridFunction) -> np.ndarray:
    """The density's ``rfftn`` at the circular length of ``convolve_fft``."""
    size = sp_fft.next_fast_len(2 * f.grid.n - 1, True)
    return sp_fft.rfftn(f.values, [size] * f.grid.d)


def _convolve(f: VelocityGridFunction, kernel: np.ndarray, vhat: np.ndarray | None) -> np.ndarray:
    """``convolve_fft`` from the density's spectrum ``vhat``, which is
    computed here when the caller has none to share."""
    if vhat is None:
        vhat = _density_spectrum(f)
    n, d = f.grid.n, f.grid.d
    comp_shape = kernel.shape[d:]
    out = np.empty(f.values.shape + comp_shape)
    size = sp_fft.next_fast_len(2 * n - 1, True)
    for comp in itertools.product(*[range(s) for s in comp_shape]):
        out[(...,) + comp] = _valid_convolution(vhat, kernel[(...,) + comp], size, n)
    return out * f.grid.cell_volume


def _valid_convolution(vhat: np.ndarray, ker: np.ndarray, size: int, n: int) -> np.ndarray:
    """``irfftn(rfftn(ker, s) * vhat, s)[valid]`` with s = (size,) * d, bit for bit.

    The valid slice is [n - 1, 2n - 1) on every axis.  Both transforms go one
    axis at a time in pocketfft's own order: the real axis last, the complex
    axes 0 ... d-2 in turn.  The forward transform pads each axis only when it
    comes to it, so lines that are all padding are never transformed; the
    inverse keeps only the n valid rows of each axis once it is done, and
    scales once at the end, as ``irfftn`` does.
    """
    d = ker.ndim
    spec = sp_fft.rfft(ker, size, axis=-1)
    for axis in range(d - 1):
        spec = sp_fft.fft(spec, size, axis=axis)
    spec *= vhat
    keep = slice(n - 1, 2 * n - 1)
    for axis in range(d - 1):
        spec = sp_fft.ifft(spec, axis=axis, norm="forward")[(slice(None),) * axis + (keep,)]
    conv = sp_fft.irfft(spec, size, axis=-1, norm="forward")[..., keep]
    return conv * (1.0 / size**d)


def landau_a_field(f: VelocityGridFunction, params: LandauParams) -> np.ndarray:
    """Diffusion matrices A[f] at every grid point, shape (n, ..., n, d, d)."""
    _check_dims(f, params)
    return _a_field(f, params, None)


def landau_b_field(f: VelocityGridFunction, params: LandauParams) -> np.ndarray:
    """Drift vectors B[f] at every grid point, shape (n, ..., n, d)."""
    _check_dims(f, params)
    return _b_field(f, params, None)


def landau_c_field(f: VelocityGridFunction, params: LandauParams) -> np.ndarray:
    """Reaction coefficients c[f]; pointwise c f in the Coulomb-type case gamma = -d."""
    _check_dims(f, params)
    return _c_field(f, params, None)


# The fields from the density's spectrum ``vhat``, or from a fresh one when
# ``vhat`` is None; ``check_coefficient_bounds`` shares one among all three.
def _a_field(f: VelocityGridFunction, params: LandauParams, vhat: np.ndarray | None) -> np.ndarray:
    upper = params.a_const * _convolve(f, _kernel_a_upper(f.grid, params), vhat)
    return _from_upper(upper, params.d)


def _b_field(f: VelocityGridFunction, params: LandauParams, vhat: np.ndarray | None) -> np.ndarray:
    return params.b_const * _convolve(f, kernel_b(f.grid, params), vhat)


def _c_field(f: VelocityGridFunction, params: LandauParams, vhat: np.ndarray | None) -> np.ndarray:
    if params.gamma == -params.d:
        return params.c_const * f.values.copy()
    return params.c_const * _convolve(f, kernel_c(f.grid, params), vhat)


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
    gamma in [-d, -2).  The moment window is a precondition.  The density is
    transformed once, and A, B and c are convolved from that one spectrum.
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
    vhat = _density_spectrum(f)
    a_field = _a_field(f, params, vhat).reshape(-1, d, d)
    eigs = np.linalg.eigvalsh(a_field)
    det = np.prod(eigs, axis=-1)
    a_norm = np.abs(eigs).max(axis=-1)
    b_field = _b_field(f, params, vhat).reshape(-1, d)
    b_norm = np.sqrt(np.einsum("ij,ij->i", b_field, b_field))
    c_vals = np.abs(_c_field(f, params, vhat).ravel())
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
