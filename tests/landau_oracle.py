"""The Landau module's slow paths, kept as test oracles for the fast ones.

``convolve_fft`` transforms every kernel component over the whole zero-padded
box with ``rfftn`` and inverts it with ``irfftn`` before slicing out the valid
part, and its periodic branch rebuilds the fold indices for every component;
``kernel_a`` builds all d^2 components, and ``landau_a_field`` convolves each
of them and then symmetrises.  Each is the arithmetic the fast path must
reproduce bitwise.
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


def convolve_fft(f: VelocityGridFunction, kernel: np.ndarray, periodic: bool = False) -> np.ndarray:
    grid, vals = f.grid, f.values
    n, d = grid.n, grid.d
    comp_shape = kernel.shape[d:]
    out = np.empty(vals.shape + comp_shape)
    if periodic:
        fhat = sp_fft.fftn(vals)
    else:
        fshape = [sp_fft.next_fast_len(3 * n - 2, True)] * d
        vhat = sp_fft.rfftn(vals, fshape)
        valid = (slice(n - 1, 2 * n - 1),) * d
    for comp in itertools.product(*[range(s) for s in comp_shape]):
        ker = kernel[(...,) + comp]
        if periodic:
            folded = np.zeros_like(vals)
            idx_axes = [np.arange(-(n - 1), n) % n for _ in range(d)]
            mesh = np.meshgrid(*idx_axes, indexing="ij")
            np.add.at(folded, tuple(mesh), ker)
            conv = sp_fft.ifftn(fhat * sp_fft.fftn(folded)).real
        else:
            conv = sp_fft.irfftn(sp_fft.rfftn(ker, fshape) * vhat, fshape)[valid]
        out[(...,) + comp] = conv
    return out * grid.cell_volume


def landau_a_field(
    f: VelocityGridFunction,
    params: LandauParams,
    method: str = "fft",
    periodic: bool = False,
) -> np.ndarray:
    conv = convolve_fft if method == "fft" else convolve_direct
    out = params.a_const * conv(f, kernel_a(f.grid, params), periodic=periodic)
    return 0.5 * (out + np.swapaxes(out, -1, -2))
