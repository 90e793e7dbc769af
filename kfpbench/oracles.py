"""Reference computations the benchmark checks kfplab against.

Nothing here imports kfplab: each function recomputes a quantity from its
definition (cylinder membership, grid quadrature, the evolved Gaussian, the
snapshot and ledger formats, the lattice convolution, the determinant
exponent) so that a check compares the program with an independent answer,
never with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Membership tolerance at the cylinder boundary: a node that lies on the
# boundary up to rounding keeps its exact-arithmetic verdict, so the open
# sides exclude it and the closed top includes it.
BOUNDARY_TOL = 1e-12


def in_slanted_cylinder(x, v, t, x0, v0, t0, r, tol=BOUNDARY_TOL):
    """Membership in Q_r(z0) = z0 o (r Q_1), Q_1 = B_1 x B_1 x (-1, 0].

    z0^{-1} o z = (x - x0 - (t - t0) v0, v - v0, t - t0) must lie in
    |y_x| < r^3, |y_v| < r, -r^2 < y_t <= 0.  x and v have the components
    on the last axis; t broadcasts against their leading shape.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    yt = np.asarray(t, dtype=float) - t0
    yx = x - np.asarray(x0, dtype=float) - yt[..., None] * np.asarray(v0, dtype=float)
    yv = v - np.asarray(v0, dtype=float)
    in_x = np.sqrt(np.sum(yx * yx, axis=-1)) < r**3 - tol
    in_v = np.sqrt(np.sum(yv * yv, axis=-1)) < r - tol
    in_t = (yt > -(r**2) + tol) & (yt <= tol)
    return in_x & in_v & in_t


def snapshot_weights(times) -> np.ndarray:
    """Time weight of each stored snapshot: the gap to the previous one.

    The first snapshot, which has no predecessor, takes the second one's gap.
    """
    t = np.asarray(times, dtype=float)
    if t.size == 1:
        return np.ones(1)
    gaps = np.diff(t)
    return np.concatenate([gaps[:1], gaps])


def cylinder_statistics(values, times, x_mesh, v_mesh, cell, center, r, theta):
    """L^2 norm, oscillation and level-set measures of f over Q_r(center).

    ``values`` has shape (n_times, *mesh); ``center`` is (x0, v0, t0).  Every
    node of every snapshot is tested against the cylinder on its own.
    """
    x0, v0, t0 = center
    weights = snapshot_weights(times)
    sq = 0.0
    lo, hi = math.inf, -math.inf
    high = low = mid = 0.0
    cut = 1.0 - theta
    for n, t in enumerate(times):
        inside = in_slanted_cylinder(x_mesh, v_mesh, t, x0, v0, t0, r)
        if not inside.any():
            continue
        f = values[n][inside]
        w = cell * weights[n]
        sq += float(np.dot(f, f)) * w
        lo = min(lo, float(f.min()))
        hi = max(hi, float(f.max()))
        high += np.count_nonzero(f >= cut) * w
        low += np.count_nonzero(f <= 0.0) * w
        mid += np.count_nonzero((f > 0.0) & (f < cut)) * w
    return {"norm2": math.sqrt(sq), "osc": hi - lo, "ls_high": high, "ls_low": low,
            "ls_mid": mid}


def evolved_gaussian(x, v, t, var_x0, var_v0, mean_x=0.0, mean_v=0.0):
    """Density at time t of df/dt + v f_x = f_vv from a product Gaussian.

    With V_t = V_0 + sqrt(2) W_t and X_t = X_0 + t V_0 + sqrt(2) int W, the
    pair stays Gaussian with Var V = var_v0 + 2t, Cov = t var_v0 + t^2 and
    Var X = var_x0 + t^2 var_v0 + 2 t^3 / 3.
    """
    sxx = var_x0 + t * t * var_v0 + 2.0 * t**3 / 3.0
    sxv = t * var_v0 + t * t
    svv = var_v0 + 2.0 * t
    det = sxx * svv - sxv * sxv
    dx = np.asarray(x, dtype=float) - mean_x - t * mean_v
    dv = np.asarray(v, dtype=float) - mean_v
    quad = (svv * dx * dx - 2.0 * sxv * dx * dv + sxx * dv * dv) / det
    return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def evolved_moments(t, var_x0, var_v0):
    """(Var x, Cov(x, v), Var v) of the evolved Gaussian at time t."""
    return var_x0 + t * t * var_v0 + 2.0 * t**3 / 3.0, t * var_v0 + t * t, var_v0 + 2.0 * t


def read_snapshot(path):
    """(header, values) of a snapshot file: one JSON line, then raw float64."""
    raw = Path(path).read_bytes()
    end = raw.index(b"\n")
    header = json.loads(raw[:end])
    values = np.frombuffer(raw[end + 1 :], dtype="<f8").reshape(header["dims"])
    return header, values


def read_ledger(path) -> dict[str, np.ndarray]:
    """Columns of a ledger CSV by name."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(row[key]) for row in rows]) for key in rows[0]}


def snapshots_against_ledger(out_dir, cell) -> tuple[float, float]:
    """Worst relative mismatch of mass and L^2 between snapshots and ledger.

    Mass and L^2 are recomputed from every stored snapshot file and compared
    with the ledger row of the same time.  Also returns the smallest value
    stored in any snapshot.
    """
    ledger = read_ledger(Path(out_dir) / "ledger.csv")
    row_of_time = {t: i for i, t in enumerate(ledger["time"])}
    worst = 0.0
    fmin = math.inf
    for path in sorted((Path(out_dir) / "snapshots").glob("snap_*.kfs")):
        header, values = read_snapshot(path)
        i = row_of_time[float(header["time"])]
        flat = values.ravel()
        mass = float(np.sum(flat)) * cell
        l2 = float(np.dot(flat, flat)) * cell
        worst = max(worst,
                    abs(mass - ledger["mass"][i]) / abs(ledger["mass"][i]),
                    abs(l2 - ledger["l2"][i]) / abs(ledger["l2"][i]))
        fmin = min(fmin, float(flat.min()))
    return worst, fmin


def conservation(ledger: dict[str, np.ndarray]) -> tuple[float, float]:
    """(relative mass drift, largest relative L^2 increase) over a ledger."""
    mass, l2 = ledger["mass"], ledger["l2"]
    drift = float(np.max(np.abs(mass - mass[0]))) / max(1.0, abs(float(mass[0])))
    growth = float(np.max(np.diff(l2))) / max(1.0, float(l2[0]))
    return drift, growth


def lattice_convolution(values, kernel, h):
    """out[i] = h^d sum_j kernel[i - j + (n - 1)] values[j], zero padding.

    ``kernel`` lives on the offset lattice (2n - 1 points per axis) and may
    carry trailing component axes.  Every (i, j) pair is summed explicitly.
    """
    values = np.asarray(values, dtype=float)
    n, d = values.shape[0], values.ndim
    idx = np.indices((n,) * d).reshape(d, -1).T
    offsets = idx[:, None, :] - idx[None, :, :] + (n - 1)
    gathered = kernel[tuple(offsets[..., k] for k in range(d))]
    out = np.tensordot(values.reshape(-1), gathered, axes=([0], [1]))
    return out.reshape((n,) * d + kernel.shape[d:]) * h**d


def kappa(gamma: float, d: int) -> float:
    """Exponent of the lower bound det A[f](v) >= c (1 + |v|)^kappa.

    (d - 1)(gamma + 2) + gamma for gamma in [-2, 0]; 3 gamma + 2 for
    gamma in [-d, -2).
    """
    if gamma >= -2.0:
        return (d - 1) * (gamma + 2.0) + gamma
    return 3.0 * gamma + 2.0


def velocity_moments(values, h, d):
    """(mass, second moment int |v|^2 f) on the cell-centred grid of spacing h."""
    n = values.shape[0]
    axis = -n * h / 2.0 + (np.arange(n) + 0.5) * h
    sq = sum(np.meshgrid(*([axis**2] * d), indexing="ij"))
    return float(values.sum()) * h**d, float((values * sq).sum()) * h**d
