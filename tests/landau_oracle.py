"""The Landau module's slow paths, kept as test oracles for the fast ones.

``convolve_fft`` transforms every kernel component over the whole zero-padded
box with ``rfftn`` and inverts it with ``irfftn`` before slicing out the valid
part; ``kernel_a`` builds all d^2 components, and ``landau_a_field`` convolves
each of them and then symmetrises.  Each is the arithmetic the fast path must
reproduce bitwise.

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
    _offset_lattice,
    convolve_direct,
)


def kernel_a(grid: VelocityGrid, params: LandauParams) -> np.ndarray:
    if params.gamma + 2.0 <= -grid.d:
        raise ValueError("gamma + 2 must exceed -d for an integrable kernel")
    w = _offset_lattice(grid)
    sq = np.einsum("...i,...i->...", w, w)
    safe = np.where(sq > 0.0, sq, 1.0)
    proj = np.eye(grid.d) - w[..., :, None] * w[..., None, :] / safe[..., None, None]
    radial = np.where(sq > 0.0, safe ** ((params.gamma + 2.0) / 2.0), 0.0)
    return proj * radial[..., None, None]


def convolve_fft(f: VelocityGridFunction, kernel: np.ndarray) -> np.ndarray:
    grid, vals = f.grid, f.values
    n, d = grid.n, grid.d
    comp_shape = kernel.shape[d:]
    out = np.empty(vals.shape + comp_shape)
    fshape = [sp_fft.next_fast_len(3 * n - 2, True)] * d
    vhat = sp_fft.rfftn(vals, fshape)
    valid = (slice(n - 1, 2 * n - 1),) * d
    for comp in itertools.product(*[range(s) for s in comp_shape]):
        ker = kernel[(...,) + comp]
        out[(...,) + comp] = sp_fft.irfftn(sp_fft.rfftn(ker, fshape) * vhat, fshape)[valid]
    return out * grid.cell_volume


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
