"""Risk functionals over finite parameter distributions.

A *cost profile* is a vector of per-parameter expected costs, indexed like
the beliefs it meets.  The outer solver meets each convex risk measure in
its dual form, as a supremum over priors, and evaluates it here directly:

* entropic risk: (1/gamma) * log E[exp(gamma * cost)], the worst
  expectation penalized by ``relative_entropy`` / gamma;
* Average Value at Risk at level gamma: the worst expectation over priors
  with density against the base capped at 1/(1-gamma), the masters' own
  polytope (``_avar_caps``), which is the mean of the upper 1-gamma tail
  of the costs.

Exponents are max-shifted so large gamma (1e4 and beyond) stays finite,
and small gamma is computed about the base mean, so that neither the risk
nor the penalty divided by gamma loses eps/gamma to cancellation.  Both
rules live in ``_tilt``, one pass that gives the risk and its tilted prior;
the masters and ``solve``'s dual risk read it and ``_tilted`` unvalidated.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Belief, _float_array, _real


def as_profile(values, size: int) -> np.ndarray:
    """Coerce a cost profile to a validated 1-D float array."""
    v = _float_array("cost profile entries", values)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("cost profile must be a non-empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("cost profile entries must be finite")
    if v.size != size:
        raise ValueError(f"cost profile has {v.size} entries, expected {size}")
    return v


def _weights(dist) -> np.ndarray:
    if isinstance(dist, Belief):
        return dist.weights
    return Belief(dist).weights


def _divergence_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The generalized Kullback-Leibler terms q((1 + d) log1p(d) - d), d =
    (p - q)/q, elementwise where q > 0, as p log1p(d) - (p - q).  They sum
    to KL(p || q) when p and q sum to 1, are small where p is near q, and a
    normalization defect of p adds nothing to first order.  Where d rounds
    to -1, log1p is read at the next double, so the term is about q.  Where
    q < 2**-1000, and d may overflow, log1p(d) is read as log(p) - log(q)."""
    diff, floor = p - q, 2.0**-1000  # 2.0**-53 - 1.0 is the next double above -1
    logs = np.log1p(np.maximum(diff / np.maximum(q, floor), 2.0**-53 - 1.0))
    return p * np.where(q < floor, np.log(np.where(p > 0.0, p, q)) - np.log(q), logs) - diff


def relative_entropy(mu, nu) -> float:
    """KL(mu || nu), the sum of ``_divergence_terms``, with 0 log(0/x) = 0
    and +inf where mu puts mass and nu none.  Always >= 0."""
    p, q = _weights(mu), _weights(nu)
    if p.size != q.size:
        raise ValueError(f"distribution sizes differ: {p.size} vs {q.size}")
    if not q.all():
        on = q.nonzero()[0]
        kept = p.take(on)
        if np.count_nonzero(kept) < np.count_nonzero(p):  # mass where nu has none
            return math.inf
        p, q = kept, q.take(on)
    return max(0.0, float(_divergence_terms(p, q).sum()))


def _check_gamma(mode: str, gamma, bounds: tuple[float, float] = (0.0, 0.0)) -> None:
    """Raise ValueError unless ``gamma``, a real number and not a bool, suits the
    mode: entropic > 0 with 1/gamma and gamma times the scale of the cost ``bounds``
    (lo, hi), or their span if they straddle 0, finite; avar in (0, 1); robust none."""
    g, (lo, hi) = _real(gamma, math.nan), bounds
    reach, name = (hi - lo, "span") if lo < 0.0 < hi else (max(-lo, hi), "scale")
    if mode not in ("entropic", "avar", "robust"):
        raise ValueError(f"unknown mode {mode!r}; expected entropic, avar or robust")
    if mode == "entropic" and not g > 0.0:
        fault = "entropic mode requires gamma > 0"
    elif mode == "entropic" and not (math.isfinite(1.0 / g) and math.isfinite(g * reach)):
        fault = ("entropic mode requires a finite gamma: 1/gamma and gamma times "
                 f"the cost {name} {reach:g} must be finite")  # inf * 0 is NaN
    elif mode == "avar" and not 0.0 < g < 1.0:
        fault = "avar mode requires gamma in (0, 1)"
    elif mode == "robust" and gamma is not None:
        fault = "robust mode takes no gamma"
    else:
        return
    raise ValueError(f"{fault}, got {gamma!r}")


def entropic_risk(profile, base, gamma: float) -> float:
    """(1/gamma) log sum(base exp(gamma profile)), validated: ``_tilt``'s
    risk on the support of ``base``, between the min and max of the profile
    there, from the expectation (gamma -> 0) to the worst case (gamma -> inf)."""
    p = _weights(base)
    on = p > 0.0
    p, v = p[on], as_profile(profile, p.size)[on]
    _check_gamma("entropic", gamma, (float(v.min()), float(v.max())))
    return _tilt(v, p, np.log(p), gamma)[1]


def _tilt(v: np.ndarray, p: np.ndarray, log_p: np.ndarray, gamma: float):
    """(w, rho): the tilted prior of ``v`` under the base ``p`` > 0 of log
    ``log_p`` and its entropic risk, clamped to v's range, from one pass
    over the exponentials: about the mean m = p . v, as m + log1p(p .
    expm1(gamma (v - m)))/gamma, where gamma times v's distance from m is
    below 1, so that rho keeps its precision at small gamma (a log-sum-exp
    over gamma loses eps/gamma), and max-shifted elsewhere."""
    listed = v.tolist()
    m, lo, hi = float(p @ v), min(listed), max(listed)
    if gamma * max(hi - m, m - lo) < 1.0:
        u = np.expm1(gamma * (v - m))
        e, value = p + p * u, m + math.log1p(float(p @ u)) / gamma
    else:
        a = gamma * v + log_p
        shift = float(a.max())
        e = np.exp(a - shift)
        value = (shift + math.log(float(e.sum()))) / gamma
    return e / e.sum(), min(max(value, lo), hi)


def _tilted(profiles: np.ndarray, log_base: np.ndarray, gamma: float) -> np.ndarray:
    """Each row's tilted prior, base * exp(gamma * row) normalized, from the
    exponents gamma * row + log_base max-shifted, log_base = log(base) > -inf."""
    a = gamma * profiles + log_base
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _avar_caps(weights: np.ndarray, gamma: float) -> np.ndarray:
    """AVaR's ambiguity set: priors whose weights are at most these, the
    base ``weights`` times 1/(1-gamma)."""
    return weights * (1.0 / (1.0 - gamma))


def avar_quantile(profile, base, gamma: float) -> float:
    """Average Value at Risk: the largest expectation of the profile over
    priors within ``_avar_caps`` of the base, filled greedily from the
    largest cost down (ties by index), clamped to the profile's range on
    the base's support."""
    _check_gamma("avar", gamma)
    p = _weights(base)
    v = as_profile(profile, p.size)
    caps, listed = _avar_caps(p, gamma).tolist(), v.tolist()
    w, remaining = np.zeros(p.size), 1.0
    for k in sorted(range(p.size), key=lambda k: -listed[k]):
        w[k] = take = min(caps[k], remaining)
        remaining -= take
    on = v[p > 0.0]
    return min(max(float(w @ v), float(on.min())), float(on.max()))
