"""The Landau module's slow paths, kept as test oracles for the fast ones.

``convolve_fft`` transforms every kernel component over the whole zero-padded
box with ``rfftn`` and inverts it with ``irfftn`` before slicing out the valid
part.  At its default length ``next_fast_len(3n - 2)``, the full length of the
linear convolution, it returns bitwise what ``scipy.signal.fftconvolve(...,
mode="valid")`` does; at the program's own circular length, the least even
5-smooth length >= 2n - 1, it is the arithmetic that ``kfplab.landau``'s
``convolve_fft`` must reproduce bitwise.  The program's
fields equal the default-length result to rounding, as both are the linear
convolution.  ``kernel_a`` builds all d^2 components, and ``landau_a_field``
convolves each of them and then symmetrises.  ``symmetric_convolution``
writes a kernel given on one orthant out on the whole lattice and convolves
it the same way; patched in for ``landau._symmetric_convolution``, it turns
the fields back into full-lattice ones.  ``convolve_direct`` is the O(N^2)
lattice sum that every FFT path must match to rounding.

``kernel_a_upper``, ``kernel_b`` and ``kernel_c`` evaluate the kernels at
every point of the offset lattice.  The program's whole-lattice kernels, and
its fields' kernels on the orthant k >= 0, must equal them byte for byte,
signed zeros included.

``eigen_extremes`` takes the eigenvalues of every matrix in the stack, as
``check_coefficient_bounds`` did at every grid point before it ran
``eigvalsh`` only on the points that can decide its report.  Patched in for
``landau._eigen_extremes``, it turns the check back into that full-grid one.

The module has no periodic convolution.  ``periodic_extension`` turns one into
a zero-padded one, and ``convolve_periodic`` folds the kernel onto the torus
to give the image sum that the extension must reproduce.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import fft as sp_fft

from kfplab.landau import (
    LandauParams,
    VelocityGrid,
    VelocityGridFunction,
    _singular_cell_average,
)


def offset_lattice(grid: VelocityGrid) -> np.ndarray:
    """Offsets w = k h for k in [-(n-1), n-1]^d, shape (2n-1, ..., 2n-1, d)."""
    k = np.arange(-(grid.n - 1), grid.n) * grid.h
    axes = np.meshgrid(*([k] * grid.d), indexing="ij")
    return np.stack(axes, axis=-1)


def kernel_a_upper(grid: VelocityGrid, params: LandauParams) -> np.ndarray:
    if params.gamma + 2.0 <= -grid.d:
        raise ValueError("gamma + 2 must exceed -d for an integrable kernel")
    i, j = np.triu_indices(grid.d)
    w = offset_lattice(grid)
    sq = np.einsum("...i,...i->...", w, w)
    safe = np.where(sq > 0.0, sq, 1.0)
    proj = np.eye(grid.d)[i, j] - w[..., i] * w[..., j] / safe[..., None]
    radial = np.where(sq > 0.0, safe ** ((params.gamma + 2.0) / 2.0), 0.0)
    return proj * radial[..., None]


def kernel_b(grid: VelocityGrid, params: LandauParams) -> np.ndarray:
    w = offset_lattice(grid)
    sq = np.einsum("...i,...i->...", w, w)
    safe = np.where(sq > 0.0, sq, 1.0)
    radial = np.where(sq > 0.0, safe ** (params.gamma / 2.0), 0.0)
    return w * radial[..., None]


def kernel_c(grid: VelocityGrid, params: LandauParams) -> np.ndarray:
    if params.gamma <= -grid.d:
        raise ValueError("pointwise kernel only exists for gamma > -d")
    w = offset_lattice(grid)
    sq = np.einsum("...i,...i->...", w, w)
    safe = np.where(sq > 0.0, sq, 1.0)
    vals = np.where(sq > 0.0, safe ** (params.gamma / 2.0), 0.0)
    vals[(grid.n - 1,) * grid.d] = _singular_cell_average(grid, params.gamma)
    return vals


def kernel_a(grid: VelocityGrid, params: LandauParams) -> np.ndarray:
    if params.gamma + 2.0 <= -grid.d:
        raise ValueError("gamma + 2 must exceed -d for an integrable kernel")
    w = offset_lattice(grid)
    sq = np.einsum("...i,...i->...", w, w)
    safe = np.where(sq > 0.0, sq, 1.0)
    proj = np.eye(grid.d) - w[..., :, None] * w[..., None, :] / safe[..., None, None]
    radial = np.where(sq > 0.0, safe ** ((params.gamma + 2.0) / 2.0), 0.0)
    return proj * radial[..., None, None]


def convolve_direct(f: VelocityGridFunction, kernel: np.ndarray) -> np.ndarray:
    """O(N^2) reference sum: out[i] = h^d sum_k kernel(k) f[i - k].

    ``kernel`` lives on the offset lattice (2n-1 per axis, trailing component
    axes allowed); f is zero outside the box.
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
        shifted = np.zeros_like(vals)
        src = tuple(slice(max(0, -o), n - max(0, o)) for o in offs)
        dst = tuple(slice(max(0, o), n - max(0, -o)) for o in offs)
        shifted[dst] = vals[src]
        out += shifted[(...,) + (None,) * len(comp_shape)] * kv
    return out * grid.cell_volume


def convolve_fft(
    f: VelocityGridFunction, kernel: np.ndarray, size: int | None = None
) -> np.ndarray:
    """Whole-box FFT convolution of length ``size`` per axis, by default
    ``next_fast_len(3n - 2)``; any size >= 2n - 1 gives the linear result."""
    grid, vals = f.grid, f.values
    n, d = grid.n, grid.d
    comp_shape = kernel.shape[d:]
    out = np.empty(vals.shape + comp_shape)
    fshape = [size or sp_fft.next_fast_len(3 * n - 2, True)] * d
    vhat = sp_fft.rfftn(vals, fshape)
    valid = (slice(n - 1, 2 * n - 1),) * d
    for comp in itertools.product(*[range(s) for s in comp_shape]):
        ker = kernel[(...,) + comp]
        out[(...,) + comp] = sp_fft.irfftn(sp_fft.rfftn(ker, fshape) * vhat, fshape)[valid]
    return out * grid.cell_volume


def symmetric_convolution(f: VelocityGridFunction, half: np.ndarray, odd) -> np.ndarray:
    """``landau._symmetric_convolution`` through the whole lattice: the kernel
    with orthant values ``half``, odd in the axes ``odd`` and even in the
    others, written out at every offset and passed to ``convolve_fft``."""
    k = np.arange(-(f.grid.n - 1), f.grid.n)
    full = half[np.ix_(*[np.abs(k)] * f.grid.d)]
    for axis in odd:
        full = full * np.where(k < 0, -1.0, 1.0).reshape((-1,) + (1,) * (f.grid.d - 1 - axis))
    return convolve_fft(f, full)


def periodic_extension(
    f: VelocityGridFunction, kernel: np.ndarray
) -> tuple[VelocityGridFunction, np.ndarray]:
    """f tiled 3 times per axis, and ``kernel`` zero-padded to the wider offset lattice.

    The middle tile of their zero-padded convolution is the periodic image sum
    of f with ``kernel`` folded onto the torus, as ``convolve_periodic`` forms it.
    """
    grid, n, d = f.grid, f.grid.n, f.grid.d
    wide = VelocityGrid(v_max=3 * grid.v_max, n=3 * n, d=d)
    ker = np.zeros((6 * n - 1,) * d + kernel.shape[d:])
    ker[(slice(2 * n, 4 * n - 1),) * d] = kernel
    return VelocityGridFunction(wide, np.tile(f.values, (3,) * d)), ker


def middle_tile(field: np.ndarray, n: int, d: int) -> np.ndarray:
    return field[(slice(n, 2 * n),) * d]


def convolve_periodic(f: VelocityGridFunction, kernel: np.ndarray) -> np.ndarray:
    grid, vals = f.grid, f.values
    n, d = grid.n, grid.d
    comp_shape = kernel.shape[d:]
    out = np.empty(vals.shape + comp_shape)
    fhat = sp_fft.fftn(vals)
    fold = tuple(np.meshgrid(*[np.arange(-(n - 1), n) % n] * d, indexing="ij"))
    for comp in itertools.product(*[range(s) for s in comp_shape]):
        folded = np.zeros_like(vals)
        np.add.at(folded, fold, kernel[(...,) + comp])
        out[(...,) + comp] = sp_fft.ifftn(fhat * sp_fft.fftn(folded)).real
    return out * grid.cell_volume


def landau_a_field(
    f: VelocityGridFunction,
    params: LandauParams,
    method: str = "fft",
    periodic: bool = False,
) -> np.ndarray:
    """A from the zero-padded FFT or the direct sum, on f or on its periodic extension."""
    conv = convolve_fft if method == "fft" else convolve_direct
    ker = kernel_a(f.grid, params)
    if periodic:
        f, ker = periodic_extension(f, ker)
    out = params.a_const * conv(f, ker)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def eigen_extremes(a: np.ndarray, det_scale: np.ndarray,
                   top_scale: np.ndarray) -> tuple[float, int, float]:
    """``landau._eigen_extremes`` from the eigenvalues of every matrix."""
    eigs = np.linalg.eigvalsh(a)
    det_ratio = np.prod(eigs, axis=-1) / det_scale
    k = int(np.argmin(det_ratio))
    return float(det_ratio[k]), k, float((np.abs(eigs).max(axis=-1) / top_scale).max())
