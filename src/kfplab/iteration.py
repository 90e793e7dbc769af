"""Exact proof-side recursions and exponent formulas: the nonlinear level-set
recursion and its smallness threshold, the power-raising product, and the
closed-form exponents used throughout the probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def exponent_sum(alpha: float, n: int) -> float:
    """Closed form of n + alpha (n-1) + ... + alpha^{n-1}.

    Equals (alpha (alpha^n - 1) - n (alpha - 1)) / (alpha - 1)^2.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if alpha == 1.0:
        raise ValueError("alpha = 1 is degenerate; the limit value is n (n + 1) / 2")
    try:
        total = (alpha * (alpha**n - 1.0) - n * (alpha - 1.0)) / (alpha - 1.0) ** 2
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(f"the sum overflows a float at alpha = {alpha!r}, n = {n}")
    return total


@dataclass(frozen=True)
class DeGiorgiReport:
    """Threshold data for the superlinear recursion V_n <= beta^n V_{n-1}^alpha."""

    gamma: float          # beta^{alpha/(alpha-1)^2} V_0
    converges: bool       # gamma < 1
    verdict: str          # "converges" | "no conclusion"
    direct_log: np.ndarray   # log of the exact recursion values, -inf for 0
    bound_log: np.ndarray    # log of the dominating sequence gamma^{alpha^n}

    @property
    def direct(self) -> np.ndarray:
        return np.exp(self.direct_log)

    @property
    def bound(self) -> np.ndarray:
        return np.exp(self.bound_log)


# terms of the level-set recursion that ``degiorgi_threshold`` evaluates
_DEGIORGI_TERMS = 30


def degiorgi_threshold(beta: float, alpha: float, v0: float) -> DeGiorgiReport:
    """Evaluate the level-set recursion V_n = beta^n V_{n-1}^alpha and its bound
    for n = 0 .. ``_DEGIORGI_TERMS``.

    Returns gamma = beta^{alpha/(alpha-1)^2} V_0, the verdict
    ("converges" iff gamma < 1), and both sequences in log space so that the
    term-by-term domination bound_n >= direct_n can be checked without
    underflow.
    """
    if alpha <= 1.0:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    if beta < 1.0:
        raise ValueError(f"beta must be >= 1, got {beta}")
    if v0 < 0.0:
        raise ValueError(f"V0 must be >= 0, got {v0}")

    exponent = alpha / (alpha - 1.0) ** 2
    log_gamma = exponent * math.log(beta) + (math.log(v0) if v0 > 0 else -math.inf)
    gamma = math.exp(log_gamma) if log_gamma < 700 else math.inf

    ns = np.arange(_DEGIORGI_TERMS + 1)
    if v0 == 0.0:
        direct_log = np.full(ns.size, -np.inf)
        bound_log = np.full(ns.size, -np.inf)
    else:
        # exact recursion: log V_n = S_n log beta + alpha^n log V_0; the bound
        # alpha^n log gamma exceeds it by (alpha^n exponent - S_n) log beta,
        # which is (alpha + n (alpha - 1)) / (alpha - 1)^2 log beta >= 0; adding
        # that gap keeps bound_log >= direct_log in floating point as well
        sums = np.array([0.0] + [exponent_sum(alpha, int(n)) for n in ns[1:]])
        direct_log = sums * math.log(beta) + alpha**ns.astype(float) * math.log(v0)
        bound_log = direct_log + (alpha + ns * (alpha - 1.0)) / (alpha - 1.0) ** 2 * math.log(beta)

    converges = log_gamma < 0.0
    return DeGiorgiReport(
        gamma=gamma,
        converges=converges,
        verdict="converges" if converges else "no conclusion",
        direct_log=direct_log,
        bound_log=bound_log,
    )


def moser_product(p: float, cbar: float, a: float, n_terms: int) -> tuple[np.ndarray, float]:
    """Partial products Pi_n = prod_{k=1}^n (cbar a^2 k^4)^{1/q_k}, q_k = (p/2)^k.

    Requires p > 2 so that sum 1/q_k converges; returns the partial products
    for n = 1..n_terms (accumulated in log space) and the final value as the
    limit estimate.
    """
    if p <= 2.0:
        raise ValueError(f"p must be > 2 for the product to converge, got {p}")
    if cbar < 1.0:
        raise ValueError(f"cbar must be >= 1, got {cbar}")
    if a <= 0.0:
        raise ValueError(f"a must be positive, got {a}")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    ks = np.arange(1, n_terms + 1, dtype=float)
    inv_q = (2.0 / p) ** ks
    log_terms = inv_q * (math.log(cbar * a**2) + 4.0 * np.log(ks))
    partials = np.exp(np.cumsum(log_terms))
    return partials, float(partials[-1])


def sobolev_p(d: int) -> float:
    """The embedding exponent p = 6 (2d + 1) / (6d + 1)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return 6.0 * (2 * d + 1) / (6 * d + 1)


def holder_alpha(theta: float, omega: float) -> float:
    """The oscillation-decay exponent alpha = ln theta / ln (omega / 2).

    Computed with log2 so that dyadic inputs give exact ratios,
    e.g. holder_alpha(1/2, 1/4) == 1/3 bit-exactly.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if not 0.0 < omega < 1.0:
        raise ValueError(f"omega must lie in (0, 1), got {omega}")
    return math.log2(theta) / math.log2(omega / 2.0)


def kappa_exponent(gamma: float, d: int) -> float:
    """Determinant lower-bound exponent for the collision diffusion matrix."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not -d <= gamma <= 0.0:
        raise ValueError(f"gamma must lie in [-d, 0], got {gamma}")
    if gamma >= -2.0:
        return (d - 1) * (gamma + 2.0) + gamma
    return 3.0 * gamma + 2.0

