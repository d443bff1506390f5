"""Reference implementations the tests check the solver against: the risk
measures' dual forms, the Bayes recursion over unmerged histories, and the
exact reading of config number literals."""

from fractions import Fraction

import numpy as np

from ambmdp.belief import initial_posterior, predictive
from ambmdp.model import Belief
from ambmdp.risk import _weights, as_profile, relative_entropy

#: comparison slack for cumulative masses in quantile computations
QUANTILE_TOL = 1e-12


def expected_cost(profile, base) -> float:
    """Plain expectation of the profile under the base distribution (the
    gamma -> 0 limit of both risk measures)."""
    p = _weights(base)
    v = as_profile(profile, p.size)
    return float(p @ v)


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


def within_avar_caps(mu: Belief, base: Belief, gamma: float, tol: float = 1e-12) -> bool:
    """Whether ``mu``'s density against ``base`` is at most 1/(1-gamma)."""
    return bool(np.all(mu.weights <= base.weights * (1.0 / (1.0 - gamma)) + tol))


def history_value(model, prior: Belief) -> float:
    """Optimal Bayes value by backward recursion over observable histories,
    each followed on its own: the unmerged reference for ``solve_bayes``."""

    def value(n: int, state: int, belief: Belief) -> float:
        if n == model.horizon:
            return float(belief.weights @ model.terminal_cost[:, state])
        return min(q_value(n, state, belief, action) for action in model.feasible[n][state])

    def q_value(n: int, state: int, belief: Belief, action: int) -> float:
        pred = predictive(model, n, state, belief, action)
        q = float(belief.weights @ model.stage_cost[n, :, state, action])
        for x in np.flatnonzero(pred.masses > 0.0):
            q += float(pred.masses[x]) * value(n + 1, int(x), pred.posteriors[x])
        return q

    masses = prior.weights @ model.initial_kernel
    return sum(
        float(masses[x]) * value(0, int(x), initial_posterior(model, prior, int(x)))
        for x in np.flatnonzero(masses > 0.0)
    )


def exact_number(raw: str) -> float:
    """A config number literal read as an exact rational and rounded once to
    the nearest double; raises as ``Fraction`` and ``float`` do."""
    return float(Fraction(raw))
