"""Seeded generators for rough (merely measurable, bounded) coefficient data
(A, B, s) with a certified ellipticity window.

A field is never stored pointwise: it is a pure function of (point, recipe,
seed), so evaluation order and process boundaries cannot change it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .geometry import halton, vector_norm


@dataclass(frozen=True)
class EllipticityBounds:
    """0 < lam I <= A <= Lam I."""

    lam: float
    big_lam: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lam <= self.big_lam:
            raise ValueError(f"need 0 < lambda <= Lambda, got {self.lam}, {self.big_lam}")


class NodeCoefficients(NamedTuple):
    """The coefficients at one fixed set of nodes as functions of time: for
    nodes of shape (..., d), ``a(t)``/``b(t)``/``s(t)`` return (..., d, d) /
    (..., d) / (...,) arrays."""

    a: Callable[[float], np.ndarray]
    b: Callable[[float], np.ndarray]
    s: Callable[[float], np.ndarray]


@dataclass(frozen=True)
class CoefficientField:
    """Rough data (A, B, s) with its declared bounds and generation descriptor.

    Besides the ellipticity ``bounds``, a field declares ``b_bound`` >= sup |B|,
    ``s_bound`` >= sup |s| and ``s_min`` <= inf s.  They decide which
    invariants a run checks and which probes may run on it.

    ``a_fn``/``b_fn``/``s_fn`` accept x, v of shape (..., d) and t of shape
    (...,) (or scalar) and return (..., d, d) / (..., d) / (...,) arrays.
    ``nodes_fn``, if set, binds the same field to fixed nodes x, v and
    returns its :class:`NodeCoefficients`, having computed the spatial part
    once; without it :meth:`at_nodes` binds ``a``/``b``/``s`` to the nodes.
    A wrapper that replaces ``a_fn``, ``b_fn`` or ``s_fn`` drops ``nodes_fn``.
    ``time_key`` buckets times into intervals on which the field is constant,
    allowing solvers to reuse factorisations; the default never reuses.
    """

    d: int
    bounds: EllipticityBounds
    b_bound: float
    s_bound: float
    s_min: float
    descriptor: dict
    a_fn: Callable
    b_fn: Callable
    s_fn: Callable
    nodes_fn: Callable[[np.ndarray, np.ndarray], NodeCoefficients] | None = None
    time_key: Callable[[float], object] = field(default=lambda t: t)

    def a(self, x, v, t) -> np.ndarray:
        x, v, t = _as_points(x, v, t, self.d)
        return self.a_fn(x, v, t)

    def b(self, x, v, t) -> np.ndarray:
        x, v, t = _as_points(x, v, t, self.d)
        return self.b_fn(x, v, t)

    def s(self, x, v, t) -> np.ndarray:
        x, v, t = _as_points(x, v, t, self.d)
        return self.s_fn(x, v, t)

    def at_nodes(self, x, v) -> NodeCoefficients:
        """Evaluators t -> A, t -> B, t -> s at the fixed nodes (x, v), for a
        solver that evaluates the field at the same nodes at many times.

        They return what ``a``/``b``/``s`` return at those nodes: the same
        bits without ``nodes_fn``, and for smooth fields the same sums of
        cosines added in another order.
        """
        x, v, _ = _as_points(x, v, 0.0, self.d)
        if self.nodes_fn is not None:
            return self.nodes_fn(x, v)
        return NodeCoefficients(lambda t: self.a(x, v, t), lambda t: self.b(x, v, t),
                                lambda t: self.s(x, v, t))


def _as_points(x, v, t, d: int):
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.ndim == 0 or x.shape[-1] != d:
        raise ValueError(f"x must have trailing dimension {d}")
    if v.shape != x.shape:
        raise ValueError("x and v must have matching shapes")
    t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:-1])
    return x, v, t


@dataclass(frozen=True)
class ConstantRecipe:
    """A = a_value * I (default midpoint of the ellipticity window), constant B, s."""

    kind: ClassVar[str] = "constant"
    a_value: float | None = None
    b_value: float = 0.0
    s_value: float = 0.0


@dataclass(frozen=True)
class CheckerboardRecipe:
    """Independent draws per cell of a kinetic-scaled lattice.

    Cells have extents (cell^3, cell, cell^2) in (x, v, t) so the roughness
    pattern survives the parabolic scaling of the equation.  Per cell,
    A = Q^T diag(mu) Q with mu_i ~ U[lam, Lam] and Q a random rotation,
    B uniform in the ball of radius b_max (default Lambda), s uniform in
    [-s_max, s_max].
    """

    kind: ClassVar[str] = "checkerboard"
    cell: float = 1.0
    b_max: float | None = None
    s_max: float = 0.0


@dataclass(frozen=True)
class SmoothRandomRecipe:
    """Random-Fourier eigenvalue fields, clipped into [lam, Lam]."""

    kind: ClassVar[str] = "smooth"
    corr_x: float = 1.0
    corr_v: float = 1.0
    corr_t: float = 1.0
    n_modes: int = 8
    b_max: float | None = None
    s_max: float = 0.0


@dataclass(frozen=True)
class RotatingAnisotropyRecipe:
    """Eigenvalues pinned at (lam, Lam, ..., Lam) with a rotating eigenframe."""

    kind: ClassVar[str] = "rotating"
    period: float = 1.0


Recipe = ConstantRecipe | CheckerboardRecipe | SmoothRandomRecipe | RotatingAnisotropyRecipe
RECIPES = {cls.kind: cls for cls in (ConstantRecipe, CheckerboardRecipe, SmoothRandomRecipe,
                                     RotatingAnisotropyRecipe)}
# descriptor keys that are not the recipe's own
_DESCRIPTOR_KEYS = {"kind", "seed", "d", "lambda", "Lambda", "corrupted_scale"}


def _zigzag(i: np.ndarray) -> np.ndarray:
    return np.where(i >= 0, 2 * i, -2 * i - 1)


def _rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    if d == 1:
        return np.eye(1)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _ball_draw(rng: np.random.Generator, d: int, radius: float) -> np.ndarray:
    if radius == 0.0:
        return np.zeros(d)
    g = rng.standard_normal(d)
    norm = np.linalg.norm(g)
    if norm == 0.0:
        return np.zeros(d)
    return g / norm * radius * rng.uniform() ** (1.0 / d)


def sample_field(recipe: Recipe, bounds: EllipticityBounds, seed: int, d: int = 1) -> CoefficientField:
    """Build a coefficient field for the given recipe, bounds, seed and dimension."""
    if isinstance(recipe, ConstantRecipe):
        return _constant_field(recipe, bounds, seed, d)
    if isinstance(recipe, CheckerboardRecipe):
        return _checkerboard_field(recipe, bounds, seed, d)
    if isinstance(recipe, SmoothRandomRecipe):
        return _smooth_field(recipe, bounds, seed, d)
    if isinstance(recipe, RotatingAnisotropyRecipe):
        return _rotating_field(recipe, bounds, seed, d)
    raise ValueError(f"unknown recipe {recipe!r}")


def _descriptor(recipe: Recipe, bounds: EllipticityBounds, seed: int, d: int) -> dict:
    return {"kind": recipe.kind, "seed": int(seed), "d": int(d),
            "lambda": bounds.lam, "Lambda": bounds.big_lam, **vars(recipe)}


def _constant_field(recipe: ConstantRecipe, bounds: EllipticityBounds, seed: int, d: int) -> CoefficientField:
    a_value = recipe.a_value if recipe.a_value is not None else 0.5 * (bounds.lam + bounds.big_lam)
    if not bounds.lam <= a_value <= bounds.big_lam:
        raise ValueError(f"a_value {a_value} outside [{bounds.lam}, {bounds.big_lam}]")
    if abs(recipe.b_value) > bounds.big_lam:
        raise ValueError("constant drift exceeds Lambda")
    eye = np.eye(d)

    def a_fn(x, v, t):
        return np.broadcast_to(a_value * eye, x.shape + (d,)).copy()

    def b_fn(x, v, t):
        out = np.zeros(x.shape)
        out[..., 0] = recipe.b_value
        return out

    def s_fn(x, v, t):
        return np.full(t.shape, recipe.s_value)

    return CoefficientField(
        d=d, bounds=bounds, b_bound=abs(recipe.b_value), s_bound=abs(recipe.s_value),
        s_min=recipe.s_value,
        descriptor=_descriptor(recipe, bounds, seed, d),
        a_fn=a_fn, b_fn=b_fn, s_fn=s_fn, time_key=lambda t: 0,
    )


# cell indices are int64 and seed the cell's draws through _zigzag, which doubles them
_CELL_INDEX_LIMIT = 2.0**62


def _checkerboard_field(recipe: CheckerboardRecipe, bounds: EllipticityBounds, seed: int, d: int) -> CoefficientField:
    if recipe.cell <= 0:
        raise ValueError(f"cell size must be positive, got {recipe.cell}")
    try:
        finite = math.isfinite(recipe.cell**3)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"cell size {recipe.cell!r}: cell^3 overflows")
    ell = recipe.cell
    b_max = bounds.big_lam if recipe.b_max is None else recipe.b_max
    if b_max > bounds.big_lam:
        raise ValueError("b_max may not exceed Lambda")
    cache: dict[tuple, tuple[np.ndarray, np.ndarray, float]] = {}

    def _cell_values(idx: tuple) -> tuple[np.ndarray, np.ndarray, float]:
        got = cache.get(idx)
        if got is None:
            rng = np.random.default_rng((int(seed), 0xC4E11) + tuple(int(_zigzag(np.int64(i))) for i in idx))
            mu = rng.uniform(bounds.lam, bounds.big_lam, size=d)
            q = _rotation(rng, d)
            a = q.T @ np.diag(mu) @ q
            a = 0.5 * (a + a.T)
            b = _ball_draw(rng, d, b_max)
            s = float(rng.uniform(-recipe.s_max, recipe.s_max)) if recipe.s_max > 0 else 0.0
            got = (a, b, s)
            cache[idx] = got
        return got

    def _indices(x, v, t):
        cells = np.concatenate([np.floor(x / ell**3), np.floor(v / ell),
                                np.floor(t / ell**2)[..., None]], axis=-1)
        if not np.all(np.abs(cells) < _CELL_INDEX_LIMIT):
            raise ValueError(f"checkerboard cell index (cell = {ell!r}) beyond 2^62 or not finite")
        return cells.astype(np.int64)

    def _eval(x, v, t, pick):
        idx = _indices(x, v, t)
        flat = idx.reshape(-1, idx.shape[-1])
        uniq, inv = np.unique(flat, axis=0, return_inverse=True)
        table = [pick(_cell_values(tuple(row))) for row in uniq]
        out = np.asarray(table)[inv]
        return out.reshape(x.shape[:-1] + out.shape[1:])

    def a_fn(x, v, t):
        return _eval(x, v, t, lambda cell: cell[0])

    def b_fn(x, v, t):
        return _eval(x, v, t, lambda cell: cell[1])

    def s_fn(x, v, t):
        return _eval(x, v, t, lambda cell: cell[2])

    return CoefficientField(
        d=d, bounds=bounds, b_bound=abs(b_max), s_bound=recipe.s_max, s_min=-abs(recipe.s_max),
        descriptor=_descriptor(recipe, bounds, seed, d),
        a_fn=a_fn, b_fn=b_fn, s_fn=s_fn,
        time_key=lambda t: int(np.floor(t / ell**2)),
    )


def _smooth_field(recipe: SmoothRandomRecipe, bounds: EllipticityBounds, seed: int, d: int) -> CoefficientField:
    if min(recipe.corr_x, recipe.corr_v, recipe.corr_t) <= 0:
        raise ValueError("correlation lengths must be positive")
    rng = np.random.default_rng((int(seed), 0x5A007))
    m = recipe.n_modes
    n_fields = d + d + 1  # d eigenvalue fields, d drift components, 1 source
    freqs = rng.standard_normal((n_fields, m, 2 * d + 1))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_fields, m))
    amps = rng.standard_normal((n_fields, m)) / np.sqrt(m)
    b_max = bounds.big_lam if recipe.b_max is None else recipe.b_max
    scales = np.concatenate([
        np.full(d, 1.0 / recipe.corr_x),
        np.full(d, 1.0 / recipe.corr_v),
        [1.0 / recipe.corr_t],
    ])

    a_fields = range(d)
    b_fields = range(d, 2 * d) if b_max != 0.0 else range(0)
    s_fields = range(2 * d, 2 * d + 1) if recipe.s_max != 0.0 else range(0)

    def _raw(x, v, t, k):
        z = np.concatenate([x, v, t[..., None]], axis=-1) * scales
        phase = np.einsum("...j,mj->...m", z, freqs[k]) + phases[k]
        return np.einsum("...m,m->...", np.cos(phase), amps[k])

    def _node_raw(x, v, k):
        """t -> _raw(x, v, t, k) at fixed nodes: with the spatial phases P
        computed once, cos(P + theta(t)) = cos P cos theta - sin P sin theta."""
        p = (np.concatenate([x, v], axis=-1) * scales[:-1]) @ freqs[k, :, :-1].T + phases[k]
        cos_p, sin_p = np.cos(p), np.sin(p)

        def raw(t):
            theta = (t * scales[-1]) * freqs[k, :, -1]
            return cos_p @ (amps[k] * np.cos(theta)) - sin_p @ (amps[k] * np.sin(theta))

        return raw

    def _unit(raw):
        # three-sigma clip into [0, 1]
        return np.clip(0.5 + raw / (3.0 * 0.7071), 0.0, 1.0)

    # each of _a, _b, _s builds its coefficient from raw(k), the k-th random
    # Fourier sum at points of leading shape ``shape``
    def _a(raw, shape):
        lam, big = bounds.lam, bounds.big_lam
        out = np.zeros(shape + (d, d))
        for i in a_fields:
            out[..., i, i] = lam + (big - lam) * _unit(raw(i))
        return out

    def _b(raw, shape):
        if not b_fields:
            return np.zeros(shape + (d,))
        comps = np.stack([2.0 * _unit(raw(k)) - 1.0 for k in b_fields], axis=-1)
        return (b_max / np.sqrt(d)) * comps

    def _s(raw, shape):
        if not s_fields:
            return np.zeros(shape)
        return recipe.s_max * (2.0 * _unit(raw(s_fields[0])) - 1.0)

    def pointwise(build):
        return lambda x, v, t: build(lambda k: _raw(x, v, t, k), t.shape)

    def nodes_fn(x, v):
        def bound(build, ks):
            # only the fields ``build`` evaluates get mode tables
            raws = {k: _node_raw(x, v, k) for k in ks}
            return lambda t: build(lambda k: raws[k](t), x.shape[:-1])

        return NodeCoefficients(bound(_a, a_fields), bound(_b, b_fields), bound(_s, s_fields))

    return CoefficientField(
        d=d, bounds=bounds, b_bound=abs(b_max), s_bound=recipe.s_max, s_min=-abs(recipe.s_max),
        descriptor=_descriptor(recipe, bounds, seed, d),
        a_fn=pointwise(_a), b_fn=pointwise(_b), s_fn=pointwise(_s), nodes_fn=nodes_fn,
    )


def _rotating_field(recipe: RotatingAnisotropyRecipe, bounds: EllipticityBounds, seed: int, d: int) -> CoefficientField:
    if recipe.period <= 0:
        raise ValueError("period must be positive")
    rng = np.random.default_rng((int(seed), 0x807A7))
    shift = rng.uniform(0.0, 2.0 * np.pi)
    lam, big = bounds.lam, bounds.big_lam

    def _angle(x, v, t):
        return 2.0 * np.pi * (x[..., 0] / recipe.period**3 + t / recipe.period**2) + shift

    def a_fn(x, v, t):
        ang = _angle(x, v, t)
        if d == 1:
            val = 0.5 * (lam + big) + 0.5 * (big - lam) * np.cos(ang)
            return val[..., None, None]
        out = np.zeros(x.shape + (d,))
        c, s = np.cos(ang), np.sin(ang)
        for i in range(d):
            out[..., i, i] = big
        # rotate the lam-eigenvector within the (0, 1) plane
        out[..., 0, 0] = lam * c**2 + big * s**2
        out[..., 1, 1] = lam * s**2 + big * c**2
        out[..., 0, 1] = out[..., 1, 0] = (lam - big) * c * s
        return out

    def b_fn(x, v, t):
        return np.zeros(x.shape)

    def s_fn(x, v, t):
        return np.zeros(t.shape)

    return CoefficientField(
        d=d, bounds=bounds, b_bound=0.0, s_bound=0.0, s_min=0.0,
        descriptor=_descriptor(recipe, bounds, seed, d),
        a_fn=a_fn, b_fn=b_fn, s_fn=s_fn,
    )


def field_from_descriptor(desc: dict) -> CoefficientField:
    """Reconstruct a field from its stored (recipe, seed) descriptor.

    Every key besides ``_DESCRIPTOR_KEYS`` goes to the recipe dataclass, whose
    defaults fill the rest; a key the recipe does not have is a ValueError.
    """
    recipe_cls = RECIPES.get(desc["kind"])
    if recipe_cls is None:
        raise ValueError(f"unknown field kind {desc['kind']!r}")
    try:
        recipe = recipe_cls(**{k: v for k, v in desc.items() if k not in _DESCRIPTOR_KEYS})
    except TypeError as exc:
        raise ValueError(f"{desc['kind']} recipe: {exc}") from exc
    out = sample_field(recipe, EllipticityBounds(desc["lambda"], desc["Lambda"]), desc["seed"], desc["d"])
    if "corrupted_scale" in desc:
        out = scaled_diffusion(out, desc["corrupted_scale"])
    return out


def scaled_diffusion(field_in: CoefficientField, factor: float) -> CoefficientField:
    """Multiply A by a factor while keeping the declared bounds (negative
    control).  Dropping ``nodes_fn`` makes the node evaluators a solver uses
    go through the scaled ``a_fn`` too."""
    inner = field_in.a_fn

    def a_fn(x, v, t):
        return factor * inner(x, v, t)

    desc = dict(field_in.descriptor)
    desc["corrupted_scale"] = factor
    return replace(field_in, a_fn=a_fn, nodes_fn=None, descriptor=desc)


@dataclass(frozen=True)
class CertReport:
    """Sampled ellipticity certificate."""

    n_samples: int
    min_eig: float
    max_eig: float
    max_drift: float
    max_source: float
    verdict: str
    witness: tuple | None


# relative slack of the certificate's eigenvalue, drift and source checks
_CERTIFY_RTOL = 1e-9
# sample points of one certificate
_CERTIFY_SAMPLES = 512


def certify_field(
    field_in: CoefficientField,
    box: tuple[tuple[float, float], ...] = ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 0.0)),
    seed: int = 0,
) -> CertReport:
    """Sample the field and check eigenvalues, |B| and |s| against the bounds.

    ``box`` gives (lo, hi) per group (x, v, t); the x/v windows apply to every
    component.  The points are ``geometry.halton(2 d + 1, _CERTIFY_SAMPLES,
    seed)``, a scrambled Halton sequence drawn from
    ``np.random.default_rng(seed)``: columns 0..d-1 give x, d..2d-1 give v and
    column 2d gives t.  The verdict is "ok" or "violated" with a witness point.
    """
    d = field_in.d
    u = halton(2 * d + 1, _CERTIFY_SAMPLES, seed)
    (x_lo, x_hi), (v_lo, v_hi), (t_lo, t_hi) = box
    xs = x_lo + (x_hi - x_lo) * u[:, :d]
    vs = v_lo + (v_hi - v_lo) * u[:, d : 2 * d]
    ts = t_lo + (t_hi - t_lo) * u[:, 2 * d]

    a = field_in.a(xs, vs, ts)
    eigs = np.linalg.eigvalsh(a)
    b = field_in.b(xs, vs, ts)
    b_norm = vector_norm(b)
    s = np.abs(field_in.s(xs, vs, ts))

    lam, big = field_in.bounds.lam, field_in.bounds.big_lam
    tol_lo = lam * (1.0 - _CERTIFY_RTOL)
    tol_hi = big * (1.0 + _CERTIFY_RTOL)
    bad = (
        (eigs.min(axis=-1) < tol_lo)
        | (eigs.max(axis=-1) > tol_hi)
        | (b_norm > tol_hi)
        | (s > field_in.s_bound * (1.0 + _CERTIFY_RTOL) + 1e-300)
    )
    witness = None
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        witness = tuple(xs[i]) + tuple(vs[i]) + (float(ts[i]),)
    return CertReport(
        n_samples=_CERTIFY_SAMPLES,
        min_eig=float(eigs.min()),
        max_eig=float(eigs.max()),
        max_drift=float(b_norm.max()),
        max_source=float(s.max()),
        verdict="violated" if witness is not None else "ok",
        witness=witness,
    )
