"""Risk functionals over finite parameter distributions.

A *cost profile* is a vector of per-parameter expected costs, indexed like
the beliefs it meets.  The outer solver meets each convex risk measure in
its dual form, as a supremum over priors, and evaluates it here directly:

* entropic risk: (1/gamma) * log E[exp(gamma * cost)], the worst
  expectation penalized by ``relative_entropy`` / gamma;
* Average Value at Risk at level gamma: mean of the upper quantiles, the
  worst expectation over distributions with density against the base
  capped at 1/(1-gamma).

Exponents are always max-shifted so large gamma (1e4 and beyond) stays
finite.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Belief


def as_profile(values, size: int | None = None) -> np.ndarray:
    """Coerce a cost profile to a validated 1-D float array."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("cost profile must be a non-empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("cost profile entries must be finite")
    if size is not None and v.size != size:
        raise ValueError(f"cost profile has {v.size} entries, expected {size}")
    return v


def _weights(dist) -> np.ndarray:
    if isinstance(dist, Belief):
        return dist.weights
    return Belief(np.asarray(dist, dtype=float)).weights


def _matched(mu, nu) -> tuple[np.ndarray, np.ndarray]:
    p, q = _weights(mu), _weights(nu)
    if p.size != q.size:
        raise ValueError(f"distribution sizes differ: {p.size} vs {q.size}")
    return p, q


def relative_entropy(mu, nu) -> float:
    """Kullback-Leibler divergence sum(mu * log(mu / nu)), with the
    conventions 0*log(0/x) = 0 and +inf when mu puts mass where nu does
    not.  Always >= 0."""
    p, q = _matched(mu, nu)
    p, q = p[p > 0.0], q[p > 0.0]
    if not q.all():
        return math.inf
    return max(0.0, float(np.sum(p * np.log(p / q))))


def _support_range(v: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    on = v[p > 0.0]
    return float(on.min()), float(on.max())


def entropic_risk(profile, base, gamma: float) -> float:
    """(1/gamma) * log sum(base * exp(gamma * profile)), max-shifted.

    The result lies between the min and max of the profile on the support
    of ``base``; it increases from the expectation (gamma -> 0) to the
    worst case (gamma -> inf).
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    p = _weights(base)
    v = as_profile(profile, p.size)
    mask = p > 0.0
    a = gamma * v[mask]
    shift = float(a.max())
    value = (shift + math.log(float(np.sum(p[mask] * np.exp(a - shift))))) / gamma
    lo, hi = _support_range(v, p)
    return min(max(value, lo), hi)


def avar_quantile(profile, base, gamma: float) -> float:
    """Average Value at Risk as the exact piecewise-constant integral of the
    quantile function over (gamma, 1], divided by 1 - gamma."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    p = _weights(base)
    v = as_profile(profile, p.size)
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(p[order])
    cum[-1] = 1.0
    integral = 0.0
    prev = 0.0
    for k in range(order.size):
        length = min(cum[k], 1.0) - max(prev, gamma)
        if length > 0.0:
            integral += float(v[order[k]]) * length
        prev = cum[k]
    value = integral / (1.0 - gamma)
    lo, hi = _support_range(v, p)
    return min(max(value, lo), hi)
