"""Collision coefficient fields of Landau type, computed by discrete
convolution on a uniform velocity grid, plus hydrodynamic moments and the
determinant/size bound checks.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as sp_fft

from .geometry import unit_ball_volume, vector_norm
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
        try:
            self.cell_volume
        except OverflowError:
            raise ValueError(f"v_max = {self.v_max!r}: the cell volume h^{self.d} overflows") from None

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
    """Non-negative density samples on a velocity grid.

    ``values`` is a read-only copy of the given array, so ``spectrum``,
    computed once on first use, stays the transform of the values.
    """

    grid: VelocityGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.n,) * self.grid.d:
            raise ValueError(f"values shape {vals.shape} does not match grid {self.grid}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        if np.any(vals < 0.0):
            raise ValueError("density values must be non-negative")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The values' ``rfftn`` at the circular length L of every convolution
        with them: the least even 5-smooth L >= 2n - 1.  L >= 2n - 1 keeps the
        n valid outputs free of wrap-around (``convolve_fft``); an even L lets
        the fields transform their kernels by type-I DCTs and DSTs
        (``_symmetric_convolution``)."""
        size = 2 * sp_fft.next_fast_len(self.grid.n, True)
        return sp_fft.rfftn(self.values, [size] * self.grid.d)


def maxwellian(grid: VelocityGrid, sigma: float = 1.0) -> VelocityGridFunction:
    """Isotropic Gaussian density with unit-integral normalisation in the limit."""
    if not 0.0 < sigma or not 0.0 < sigma * sigma < math.inf:
        raise ValueError(f"sigma must be positive with a nonzero, finite square, got {sigma!r}")
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
    try:
        integral = d * vb * r_eq ** (gamma + d) / (gamma + d)
    except OverflowError:
        raise ValueError(f"{grid}: the w = 0 cell's integral of |w|^{gamma!r} overflows") from None
    return integral / grid.cell_volume


def kernel_a(grid: VelocityGrid, params: LandauParams) -> np.ndarray:
    """Projection kernel (I - what x what) |w|^{gamma+2} on the offset lattice.

    The w = 0 cell contributes 0: the directional factor is undefined there and
    the kernel is integrable, so the omitted cell vanishes under refinement.
    """
    return _from_upper(_a_kernel(grid, params, _lattice(grid)), grid.d)


def kernel_b(grid: VelocityGrid, params: LandauParams) -> np.ndarray:
    """Vector kernel |w|^gamma w on the offset lattice (0 at w = 0)."""
    return _b_kernel(grid, params, _lattice(grid))


def kernel_c(grid: VelocityGrid, params: LandauParams) -> np.ndarray:
    """Scalar kernel |w|^gamma with the singular cell replaced by its average."""
    return _c_kernel(grid, params, _lattice(grid))


def _lattice(grid: VelocityGrid) -> np.ndarray:
    """The integer offsets k in [-(n-1), n-1] of the whole lattice, per axis."""
    return np.arange(1 - grid.n, grid.n)


def _a_kernel(grid: VelocityGrid, params: LandauParams, k: np.ndarray) -> np.ndarray:
    """A's kernel components i <= j, in ``np.triu_indices`` order, at the
    offsets w = k h.  w_i w_j commutes, so these determine the symmetric A."""
    if params.gamma + 2.0 <= -grid.d:
        raise ValueError("gamma + 2 must exceed -d for an integrable kernel")
    i, j = np.triu_indices(grid.d)
    w, safe, radial = _radial(grid, params.gamma + 2.0, k)
    proj = np.eye(grid.d)[i, j] - w[..., i] * w[..., j] / safe[..., None]
    return proj * radial[..., None]


def _b_kernel(grid: VelocityGrid, params: LandauParams, k: np.ndarray) -> np.ndarray:
    """B's kernel at the offsets w = k h."""
    w, _, radial = _radial(grid, params.gamma, k)
    return w * radial[..., None]


def _c_kernel(grid: VelocityGrid, params: LandauParams, k: np.ndarray) -> np.ndarray:
    """c's kernel at the offsets w = k h, ``k`` consecutive from k[0] <= 0, so
    the singular cell w = 0 sits at index -k[0] on every axis."""
    if params.gamma <= -grid.d:
        raise ValueError("pointwise kernel only exists for gamma > -d")
    _, _, vals = _radial(grid, params.gamma, k)
    vals[(-k[0],) * grid.d] = _singular_cell_average(grid, params.gamma)
    return vals


def _radial(grid: VelocityGrid, power: float, k: np.ndarray):
    """At the offsets w = k h, k the same integers on every axis: w (shape
    (len(k), ..., len(k), d)), |w|^2 with 1 at w = 0, and |w|^power with 0 at w = 0."""
    w = np.stack(np.meshgrid(*([k * grid.h] * grid.d), indexing="ij"), axis=-1)
    sq = np.einsum("...i,...i->...", w, w)
    safe = np.where(sq > 0.0, sq, 1.0)
    radial = np.where(sq > 0.0, safe ** (power / 2.0), 0.0)
    return w, safe, radial


def _from_upper(upper: np.ndarray, d: int) -> np.ndarray:
    """Symmetric (..., d, d) matrices from their components i <= j."""
    i, j = np.triu_indices(d)
    out = np.empty(upper.shape[:-1] + (d, d))
    out[..., i, j] = upper
    out[..., j, i] = upper
    return out


def convolve_fft(f: VelocityGridFunction, kernel: np.ndarray) -> np.ndarray:
    """FFT evaluation of the lattice convolution
    out[i] = h^d sum_k kernel(k) f[i - k], with f zero outside the box.

    Circular convolution of the length L of ``f.spectrum`` per axis, the least
    even 5-smooth L >= 2n - 1.  The linear convolution of the n density
    values with the 2n - 1 kernel offsets is nonzero only on [0, 3n - 3];
    length L folds outputs [L, 3n - 3] onto [0, 3n - 3 - L], which lies below
    the n "valid" outputs [n - 1, 2n - 2] exactly when L >= 2n - 1
    (overlap-save).  Those outputs are therefore the linear ones, up to
    rounding; the tests check them against the O(N^2) direct sum and against
    ``scipy.signal.fftconvolve``.  Each component is bitwise
    ``irfftn(rfftn(ker, s) * f.spectrum, s)[valid]`` with s = (L,) * d, one
    axis at a time in pocketfft's own order: the real axis last, the complex
    axes 0 ... d-2 in turn.  The forward transform pads each axis only when
    it comes to it, so lines that are all padding are never transformed.
    The fields do not come this way: they transform only their kernels'
    orthants (``_symmetric_convolution``), and this is their oracle.
    """
    n, d = f.grid.n, f.grid.d
    size = 2 * f.spectrum.shape[-1] - 2
    comp_shape = kernel.shape[d:]
    out = np.empty(f.values.shape + comp_shape)
    for comp in itertools.product(*[range(s) for s in comp_shape]):
        spec = sp_fft.rfft(kernel[(...,) + comp], size, axis=-1)
        for axis in range(d - 1):
            spec = sp_fft.fft(spec, size, axis=axis)
        spec *= f.spectrum
        out[(...,) + comp] = _pruned_inverse(spec, size, slice(n - 1, 2 * n - 1))
    return out * f.grid.cell_volume


def _pruned_inverse(spec: np.ndarray, size: int, keep: slice) -> np.ndarray:
    """``irfftn(spec, (size,) * d)`` on the rows ``keep`` of every axis, each complex
    axis in place and cut to them once done, scaled once at the end as ``irfftn`` is."""
    d = spec.ndim
    for axis in range(d - 1):
        spec = sp_fft.ifft(spec, axis=axis, norm="forward", overwrite_x=True)
        spec = spec[(slice(None),) * axis + (keep,)]
    conv = sp_fft.irfft(spec, size, axis=-1, norm="forward")[..., keep]
    return conv * (1.0 / size**d)


def _symmetric_convolution(f: VelocityGridFunction, half: np.ndarray, odd) -> np.ndarray:
    """``convolve_fft`` of f with the kernel that is ``half`` on the orthant k >= 0, odd
    in the axes ``odd`` and even in the others.  Along an axis the length-L DFT of an
    even kernel is the type-I DCT of its values at k = 0 ... L/2, that of an odd one
    -i times the type-I DST of those at k = 1 ... L/2 - 1, and X[L - k] = +-X[k]
    (Martucci, IEEE Trans. Signal Process. 42:1038, 1994).  The orthant is transformed
    axis by axis, then reflected to ``rfftn`` layout; outputs [0, n) are valid."""
    mid, d = f.spectrum.shape[-1] - 1, f.grid.d
    spec = half
    for axis in reversed(range(d)):
        if axis in odd:
            sine = sp_fft.dst(spec.take(range(1, f.grid.n), axis), type=1, n=mid - 1, axis=axis)
            spec = np.pad(sine, [(int(a == axis),) * 2 for a in range(d)])
        else:
            spec = sp_fft.dct(spec, type=1, n=mid + 1, axis=axis)
    for axis in range(d - 1):
        back = spec.take(range(mid - 1, 0, -1), axis)
        spec = np.concatenate([spec, -back if axis in odd else back], axis=axis)
    spec = spec * f.spectrum
    if len(odd):
        spec *= (-1j) ** len(odd)
    return _pruned_inverse(spec, 2 * mid, slice(0, f.grid.n)) * f.grid.cell_volume


def _orthant_convolution(f: VelocityGridFunction, half: np.ndarray, odd) -> np.ndarray:
    """``_symmetric_convolution`` of each component c of ``half``, odd in the axes ``odd[c]``."""
    return np.stack([_symmetric_convolution(f, half[..., c], o) for c, o in enumerate(odd)], -1)


def landau_a_field(f: VelocityGridFunction, params: LandauParams) -> np.ndarray:
    """Diffusion matrices A[f] at every grid point, shape (n, ..., n, d, d).
    A_ij with i != j is odd in axes i and j; the diagonal is even."""
    _check_dims(f, params)
    odd = [(i, j) if i != j else () for i, j in zip(*np.triu_indices(params.d))]
    upper = _orthant_convolution(f, _a_kernel(f.grid, params, np.arange(f.grid.n)), odd)
    return _from_upper(params.a_const * upper, params.d)


def landau_b_field(f: VelocityGridFunction, params: LandauParams) -> np.ndarray:
    """Drift vectors B[f] at every grid point, shape (n, ..., n, d); B_m is odd in axis m."""
    _check_dims(f, params)
    odd = [(m,) for m in range(params.d)]
    return params.b_const * _orthant_convolution(f, _b_kernel(f.grid, params, np.arange(f.grid.n)), odd)


def landau_c_field(f: VelocityGridFunction, params: LandauParams) -> np.ndarray:
    """Reaction coefficients c[f]; pointwise c f in the Coulomb-type case gamma = -d."""
    _check_dims(f, params)
    if params.gamma == -params.d:
        return params.c_const * f.values
    return params.c_const * _symmetric_convolution(f, _c_kernel(f.grid, params, np.arange(f.grid.n)), ())


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
    gamma in [-d, -2).  The moment window is a precondition.  A, B and c are
    convolved from the density's one ``spectrum``, at the even circular length
    that lets each kernel component's orthant go through type-I DCTs and DSTs
    (``_symmetric_convolution``), so no kernel is built on the whole lattice.
    A's eigenvalues are taken only where they can decide the report
    (``_eigen_extremes``).  A minimum det ratio that overflows, or that
    underflows to 0.0 where A has no zero eigenvalue, is a ValueError naming
    ``a_const``: the report could not tell such an A from an unbounded or a
    degenerate one.
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
    b_field = landau_b_field(f, params).reshape(-1, d)
    b_norm = vector_norm(b_field)
    c_vals = np.abs(landau_c_field(f, params).ravel())
    sup_f = max(float(f.values.max()), 1e-300)

    def envelope(p: float) -> np.ndarray:
        """(1+|v|)^p where p >= 0, else the constant sup f^(|p|/d)."""
        if p >= 0.0:
            return (1.0 + speed) ** p
        return np.full_like(speed, sup_f ** (-p / d))

    a_env, b_env, c_env = envelope(gamma + 2.0), envelope(gamma + 1.0), envelope(gamma)

    det_ratio_min, i_min, a_norm_ratio_max = _eigen_extremes(
        a_field, (1.0 + speed) ** kappa, a_env)
    if not math.isfinite(det_ratio_min):
        raise ValueError(f"det A / (1+|v|)^kappa overflows to {det_ratio_min!r} "
                         f"at a_const = {params.a_const!r}")
    if det_ratio_min == 0.0 and np.all(np.linalg.eigvalsh(a_field[i_min]) != 0.0):
        raise ValueError(f"det A / (1+|v|)^kappa underflows to 0.0 at a_const = "
                         f"{params.a_const!r}, though no eigenvalue of A is zero there")
    return BoundsReport(
        kappa=float(kappa),
        det_ratio_min=det_ratio_min,
        det_ratio_argmin=tuple(float(x) for x in pts[i_min]),
        a_norm_ratio_max=a_norm_ratio_max,
        b_norm_ratio_max=float((b_norm / b_env).max()),
        c_ratio_max=float((c_vals / c_env).max()),
        moments=(m, e, h),
        verdict="ok" if det_ratio_min > 0.0 else "degenerate",
    )


# The d = 3 candidate rule of ``_eigen_extremes``.  The determinant's margin
# is a multiple of ||A||_F^3; the largest |eigenvalue|'s is
# _TOP_ANGLE sqrt(eps p ||A||_F) + _TOP_ROUND eps ||A||_F, the shape of the
# closed form's error.  They are trusted only where ||A||_F lies in
# _TRUSTED_NORM.  There no product of three entries overflows, and both
# margins stay normal numbers so far above the subnormal spacing that an
# underflowing product costs less than they allow.
_DET_MARGIN = 1e-9
_TOP_ANGLE = 1e3
_TOP_ROUND = 1e4
_TRUSTED_NORM = (2.0**-300, 2.0**300)


def _eigen_extremes(a: np.ndarray, det_scale: np.ndarray,
                    top_scale: np.ndarray) -> tuple[float, int, float]:
    """The minimum of det a / det_scale with its first index, and the maximum
    of max |eig a| / top_scale, over a stack ``a`` of symmetric matrices
    (shape (N, d, d)); both scales are positive.

    The eigenvalues come from ``np.linalg.eigvalsh`` on the points that
    ``_eigen_candidates`` keeps.  Those hold every point that attains either
    extremum, so the result is that of a full-stack ``eigvalsh``, bit for bit.
    """
    idx = _eigen_candidates(a, det_scale, top_scale)
    eigs = np.linalg.eigvalsh(a[idx])
    det_ratio = np.prod(eigs, axis=-1) / det_scale[idx]
    k = int(np.argmin(det_ratio))
    top_ratio = np.abs(eigs).max(axis=-1) / top_scale[idx]
    return float(det_ratio[k]), int(idx[k]), float(top_ratio.max())


def _eigen_candidates(a: np.ndarray, det_scale: np.ndarray, top_scale: np.ndarray) -> np.ndarray:
    """Sorted indices of the points of ``a`` whose det ratio can be the
    minimum or whose |eig| ratio can be the maximum in ``_eigen_extremes``.

    For d = 3 each point gets two intervals from ``_estimates_3x3``: its
    determinant +- _DET_MARGIN ||A||_F^3 and its largest |eigenvalue|
    +- (_TOP_ANGLE sqrt(eps p ||A||_F) + _TOP_ROUND eps ||A||_F), each divided
    by its scale.  Dividing by a positive number keeps the order of rounded
    values, so each interval holds the ratio that the exact eigenvalues give.
    A point is kept when its interval reaches what the others guarantee:
    lo <= min hi for the minimum, hi >= max lo for the maximum.  Every point
    tied at the extremum is kept, so the first index still wins.  So is every
    point whose interval is not finite, and every point when d != 3.

    With eps = 2^-53 the margins have >= 500x headroom over the error
    argument and over what was measured.  The cofactor determinant and the
    product of LAPACK's eigenvalues each lie within a few hundred
    eps ||A||_F^3 of det A; against LAPACK the largest error seen was
    2.9e-16 ||A||_F^3.  The closed form's error comes from r, the cosine of
    three times the angle, which carries an error of O(eps ||A||_F / p).
    Near a double eigenvalue (|r| -> 1) arccos turns that into an eigenvalue
    error of O(sqrt(eps p ||A||_F)) (Kopp, Int. J. Mod. Phys. C 19:523,
    2008); where p is below eps ||A||_F, rounding in q and in LAPACK is what
    remains.  Against LAPACK on 3.3 million matrices (the Maxwellian's and
    random densities' A fields at d = 3, n = 9 ... 32 and gamma in [-3, 0],
    and random stacks with one double or near-double eigenvalue, or with
    p / ||A||_F from 1e-1 down to 1e-20) the largest |eigenvalue| deviated by
    at most 1.42 sqrt(eps p ||A||_F) where that term dominates, and by at
    most 11.5 eps ||A||_F where p is that small; the margin was at least 705
    times the deviation at every one of them.
    """
    if a.shape[-1] != 3:
        return np.arange(len(a))
    det, top, fro, p = _estimates_3x3(a)
    trusted = (fro >= _TRUSTED_NORM[0]) & (fro <= _TRUSTED_NORM[1])
    eps = np.finfo(float).eps / 2.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det_margin = np.where(trusted, _DET_MARGIN * fro * fro * fro, np.inf)
        top_margin = np.where(trusted, _TOP_ANGLE * np.sqrt(eps * p * fro) + _TOP_ROUND * eps * fro,
                              np.inf)
        keep = _reaches_extremum(det - det_margin, det + det_margin, det_scale, lowest=True)
        keep |= _reaches_extremum(top - top_margin, top + top_margin, top_scale, lowest=False)
    return np.flatnonzero(keep)


def _reaches_extremum(lo: np.ndarray, hi: np.ndarray, scale: np.ndarray, lowest: bool) -> np.ndarray:
    """Mask of the intervals [lo, hi] / scale that can hold the minimum (or
    the maximum) of values known to lie in them; non-finite ones always can."""
    lo, hi = lo / scale, hi / scale
    sure = np.isfinite(lo) & np.isfinite(hi)
    if lowest:
        return ~sure | (lo <= hi[sure].min(initial=np.inf))
    return ~sure | (hi >= lo[sure].max(initial=-np.inf))


def _estimates_3x3(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cofactor determinant, the largest |eigenvalue|, the Frobenius norm
    and p of each matrix in a symmetric stack ``a`` (shape (N, 3, 3)).

    The eigenvalues are Smith's trigonometric closed form (Commun. ACM 4:168,
    1961): with q = tr A / 3, B = A - q I, p = sqrt(tr B^2 / 6) and
    r = det B / (2 p^3), they are q + 2 p cos(arccos(r) / 3 + 2 pi k / 3).
    Where p = 0 the largest |eigenvalue| is NaN.
    """
    a00, a11, a22, a01, a02, a12 = a.reshape(-1, 9)[:, [0, 4, 8, 1, 2, 5]].T.copy()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        off = a01 * a01 + a02 * a02 + a12 * a12
        fro = np.sqrt(a00 * a00 + a11 * a11 + a22 * a22 + 2.0 * off)
        det = _det_3x3(a00, a11, a22, a01, a02, a12)
        q = (a00 + a11 + a22) / 3.0
        b00, b11, b22 = a00 - q, a11 - q, a22 - q
        p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * off) / 6.0)
        r = _det_3x3(b00, b11, b22, a01, a02, a12) / (2.0 * p * p * p)
        phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
        top = np.maximum(np.abs(q + 2.0 * p * np.cos(phi)),
                         np.abs(q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)))
    return det, top, fro, p


def _det_3x3(a00, a11, a22, a01, a02, a12):
    """Cofactor expansion along the first row of the symmetric 3x3 matrix."""
    return (a00 * (a11 * a22 - a12 * a12) - a01 * (a01 * a22 - a12 * a02)
            + a02 * (a01 * a12 - a11 * a02))
