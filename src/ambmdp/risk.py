"""Risk functionals over finite parameter distributions.

A *cost profile* is a vector of per-parameter expected costs, indexed like
the beliefs it meets.  Two convex risk measures are provided, each with a
direct form and an equivalent dual form over distributions:

* entropic risk: (1/gamma) * log E[exp(gamma * cost)], dual = worst
  expectation penalized by relative entropy / gamma;
* Average Value at Risk at level gamma: mean of the upper quantiles, dual =
  worst expectation over distributions with density against the base capped
  at 1/(1-gamma).

Exponents are always max-shifted so large gamma (1e4 and beyond) stays
finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Belief

#: comparison slack for cumulative masses in quantile computations
QUANTILE_TOL = 1e-12


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
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        return math.inf
    return max(0.0, float(np.sum(p[mask] * np.log(p[mask] / q[mask]))))


def expected_cost(profile, base) -> float:
    """Plain expectation of the profile under the base distribution (the
    gamma -> 0 limit of both risk measures)."""
    p = _weights(base)
    v = as_profile(profile, p.size)
    return float(p @ v)


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


def tilted_prior(profile, base, gamma: float) -> Belief:
    """Exponential reweighting of the base distribution by the profile:
    weights proportional to base * exp(gamma * profile).  This is the
    maximizer of the entropic dual objective."""
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    p = _weights(base)
    v = as_profile(profile, p.size)
    mask = p > 0.0
    shift = float((gamma * v[mask]).max())
    w = np.zeros_like(p)
    w[mask] = p[mask] * np.exp(gamma * v[mask] - shift)
    return Belief(w / w.sum())


def entropic_dual_value(profile, base, gamma: float) -> tuple[float, Belief]:
    """Maximize ``E_mu[profile] - relative_entropy(mu, base)/gamma`` over
    distributions.

    The maximizer is the tilted prior, in closed form.  The returned value
    equals ``entropic_risk`` up to float noise (duality).
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    v = as_profile(profile, _weights(base).size)
    argmax = tilted_prior(v, base, gamma)
    value = float(argmax.weights @ v) - relative_entropy(argmax, base) / gamma
    return value, argmax


def value_at_risk(profile, base, alpha: float) -> float:
    """Lower quantile with weak inequality: the smallest attained value
    whose cumulative base mass reaches ``alpha``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    p = _weights(base)
    v = as_profile(profile, p.size)
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(p[order])
    for k in range(order.size):
        if cum[k] >= alpha - QUANTILE_TOL:
            return float(v[order[k]])
    return float(v[order[-1]])


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


def avar_dual(profile, base, gamma: float) -> tuple[float, Belief]:
    """Maximize ``E_w[profile]`` over distributions with ``w <= base /
    (1 - gamma)`` coordinatewise, by greedy filling in decreasing profile
    order (ties broken by parameter index).  The value equals
    ``avar_quantile`` up to float noise."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    p = _weights(base)
    v = as_profile(profile, p.size)
    caps = p / (1.0 - gamma)
    order = sorted(range(v.size), key=lambda k: (-v[k], k))
    w = np.zeros_like(p)
    remaining = 1.0
    for k in order:
        if remaining <= 0.0:
            break
        take = min(float(caps[k]), remaining)
        w[k] = take
        remaining -= take
    argmax = Belief(w)
    return float(argmax.weights @ v), argmax


@dataclass(frozen=True)
class AvarAmbiguitySet:
    """Feasible priors of the AVaR dual: distributions whose density against
    the base is bounded by 1/(1-level).  On a finite parameter set the bound
    itself implies absolute continuity."""

    base: Belief
    level: float

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")

    @property
    def density_bound(self) -> float:
        return 1.0 / (1.0 - self.level)

    def weight_caps(self) -> np.ndarray:
        return self.base.weights * self.density_bound

    def contains(self, mu: Belief, tol: float = 1e-12) -> bool:
        if len(mu) != len(self.base):
            raise ValueError("belief dimension does not match the base")
        return bool(np.all(mu.weights <= self.weight_caps() + tol))
