"""Outer prior optimization and saddle-point assembly.

``solve(model, mode, prior, gamma)`` is the one entry point; the mode
names the ambiguity set, and ``solve_entropic``, ``solve_avar`` and
``solve_robust`` are shorthands for its three modes.  Every mode-specific
choice (feasible priors, penalty, dual risk, master problem) is made here,
by the private ``_Ambiguity`` object.  Each mode maximizes a concave
function of the prior whose inner value is an exact Bayes solve:

* entropic mode maximizes  inner(mu) - relative_entropy(mu, base)/gamma
  over the simplex restricted to the base prior's support;
* avar mode maximizes  inner(mu)  over the density-capped polytope of the
  AVaR dual;
* robust mode maximizes  inner(mu)  over the whole simplex on the prior's
  support (no penalty).

All three run one cutting-plane loop (Kelley's method, also known as the
double oracle).  The inner value V(mu) = min over policies of mu . C_pi is
concave and piecewise linear, and each Bayes solve returns a supporting
plane of it: the cost profile C_pi of the Bayes-optimal policy, which the
solve's one backward pass returns with the value (``ValueSolution.costs``).
Each step solves a master problem, which maximizes the objective with V
replaced by the minimum over the planes found so far (see ``search``),
computes the best response at the master's prior, and adds its cost
profile as a new plane.  The master value bounds the outer value from
above, the objective at each best response bounds it from below, and the
loop stops when the bounds meet to float slack.  Deterministic policies are finite, so the loop
ends after finitely many steps with the exact maximum.

The optimal policy is a Bayes-optimal policy at the maximizing prior, and
the duality gap reported is the direct risk evaluation of that policy's
cost profile minus the outer value.  Every Bayes solve runs over the
model's one belief DAG, which holds the branches of every parameter, so
cost profiles are exact even at priors that give a parameter zero weight.
By the same duality the prior side of the saddle certificate is exact and
costs O(K): the supremum over the feasible priors of mu . C - penalty(mu)
is the dual risk of C, so ``certify_saddle`` compares that with the
objective at the returned prior instead of scanning a grid of priors.

Plateaus: the inner value is piecewise linear in the prior, so the avar
and robust argmax can be a face.  The planes are intersected with a search
line, the whole feasible line for two parameters and the segment from the
reference prior to the best prior found for more; each edge found is
confirmed by a best response there.  The returned prior is the maximizer
on the line closest to the reference (the base prior, or in robust mode
the point mass on the last support parameter), pushed a small offset (at
most 1e-4) into the plateau interior so that the tie-broken deterministic
policy at the returned prior is the saddle policy; with two parameters the
untouched plateau edges are reported alongside.  The entropic penalty is
strictly convex, so its maximizer is unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bayes import DeterministicPolicy, bayes_cost, solve_bayes
from .model import Belief, StatisticalMDP, cost_bounds
from .risk import avar_quantile, entropic_risk, relative_entropy
from .search import entropic_master, lp_master

#: largest offset used to move the returned prior off a plateau edge
PLATEAU_MARGIN = 1e-4
#: the bounds have met once they differ by at most this times the largest
#: absolute cost bound of the model
CUT_SLACK = 1e-12


@dataclass
class SaddleResult:
    """Saddle-point solve output.

    ``worst_prior_lo`` / ``worst_prior_hi`` bracket the maximizer set along
    the search line when it is an interval (two-parameter case); both equal
    ``worst_prior`` when the maximizer is unique.  ``trace`` records every
    prior at which a best response was computed, with its outer objective
    value.
    """

    mode: str
    worst_prior: Belief
    worst_prior_lo: Belief
    worst_prior_hi: Belief
    policy: DeterministicPolicy
    value: float
    gap: float
    gamma: float | None
    base_prior: Belief | None
    support: tuple[int, ...]
    cost_profile: np.ndarray
    trace: tuple[tuple[Belief, float], ...]


@dataclass
class SaddleCertificate:
    """Saddle-point checks: no feasible prior improves on the returned one
    against the returned policy (prior side, in closed form), and the
    policy is Bayes-optimal at the returned prior (policy side).
    ``grid_points`` is always 0: no prior grid is scanned.  The field stays
    so that artifacts and their readers keep their keys."""

    mu_side_ok: bool
    mu_side_violation: float
    pi_side_ok: bool
    pi_side_error: float
    gap: float
    grid_points: int
    tol: float


class _Ambiguity:
    """Feasible priors, penalty and dual risk of one solver mode.  Weight
    vectors are indexed by position in ``support``.  A plain class: a
    dataclass would cost the package import about 1 ms."""

    def __init__(
        self,
        mode: str,
        support: tuple[int, ...],
        base: Belief | None = None,
        gamma: float | None = None,
    ):
        self.mode, self.support, self.base, self.gamma = mode, support, base, gamma

    @property
    def caps(self) -> np.ndarray:
        if self.mode == "avar":
            # densities against the base are capped at 1/(1-gamma)
            return self.base.weights[list(self.support)] * (1.0 / (1.0 - self.gamma))
        return np.ones(len(self.support))

    @property
    def reference(self) -> np.ndarray:
        """First prior of the search, and the prior plateau choices keep
        closest to."""
        if self.base is not None:
            return self.base.weights[list(self.support)]
        return np.eye(len(self.support))[-1]

    def pair_range(self) -> tuple[float, float]:
        """Feasible range of the first weight with two support parameters."""
        caps = self.caps
        return max(0.0, 1.0 - float(caps[1])), min(1.0, float(caps[0]))

    def penalty(self, mu: Belief) -> float:
        if self.mode == "entropic":
            return relative_entropy(mu, self.base) / self.gamma
        return 0.0

    def dual_risk(self, profile: np.ndarray) -> float:
        if self.mode == "entropic":
            return entropic_risk(profile, self.base, self.gamma)
        if self.mode == "avar":
            return avar_quantile(profile, self.base, self.gamma)
        return float(profile[list(self.support)].max())

    def master(self, cuts: np.ndarray) -> tuple[np.ndarray, float]:
        if self.mode == "entropic":
            return entropic_master(cuts, self.base.weights[list(self.support)], self.gamma)
        return lp_master(cuts, self.caps)

    def embed(self, size: int, w: np.ndarray) -> Belief:
        full = np.zeros(size)
        full[list(self.support)] = w
        return Belief(full)


def entropic_objective(
    model: StatisticalMDP, base_prior: Belief, gamma: float, candidate: Belief
) -> float:
    """Penalized outer objective: optimal Bayes cost at the candidate prior
    minus relative_entropy(candidate, base)/gamma; -inf off the base's
    support."""
    check_gamma("entropic", gamma)
    rel = relative_entropy(candidate, base_prior)
    if rel == math.inf:
        return -math.inf
    return solve_bayes(model, candidate).value - rel / gamma


def _solve(model: StatisticalMDP, amb: _Ambiguity) -> SaddleResult:
    """The cutting-plane loop, then plateau location and the result."""
    lo, hi = cost_bounds(model)
    scale = max(abs(lo), abs(hi))
    slack = CUT_SLACK * scale
    trace: list[tuple[Belief, float]] = []
    cuts: list[np.ndarray] = []
    solutions = {}  # best-response solves by the bytes of their weights

    def best_response(w: np.ndarray) -> tuple[float, bool]:
        """Outer objective at the prior w, and whether the best response's
        plane was new (and added)."""
        mu = amb.embed(model.n_params, w)
        solution = solutions[w.tobytes()] = solve_bayes(model, mu)
        value = solution.value - amb.penalty(mu)
        trace.append((mu, value))
        cut = solution.costs[list(amb.support)]
        fresh = not cuts or float(np.abs(np.array(cuts) - cut).max(axis=1).min()) > slack
        if fresh:
            cuts.append(cut)
        return value, fresh

    w = amb.reference
    best_w, best_v = w, -math.inf
    while True:
        value, fresh = best_response(w)
        if value > best_v:
            best_w, best_v = w, value
        if not fresh:
            break
        w, upper = amb.master(np.array(cuts))
        if upper - best_v <= slack:
            break

    w_star = w_lo = w_hi = best_w
    if amb.mode != "entropic" and len(amb.support) > 1:
        w_star, w_lo, w_hi = _plateau(amb, cuts, best_w, best_v, slack, best_response)
    size = model.n_params
    mu_star = amb.embed(size, w_star)
    solution = solutions.get(w_star.tobytes())
    if solution is None:
        solution = solve_bayes(model, mu_star)
    value = solution.value - amb.penalty(mu_star)
    raw_gap = amb.dual_risk(solution.costs) - value
    if raw_gap < -1e-10 * max(scale, 1.0):
        raise RuntimeError(
            f"weak duality violated (gap {raw_gap}); this indicates a defect "
            "in the outer search or the risk evaluation"
        )
    return SaddleResult(
        mode=amb.mode,
        worst_prior=mu_star,
        worst_prior_lo=amb.embed(size, w_lo),
        worst_prior_hi=amb.embed(size, w_hi),
        policy=solution.policy,
        value=value,
        gap=max(raw_gap, 0.0),
        gamma=amb.gamma,
        base_prior=amb.base,
        support=amb.support,
        cost_profile=solution.costs,
        trace=tuple(trace),
    )


def _plateau(
    amb: _Ambiguity, cuts: list, best_w: np.ndarray, best_v: float, slack: float, best_response
):
    """Returned prior and plateau edges (as support weights) on the search
    line a + s d through the best prior found.

    The edges are where the lowest plane falls below the best value.  A
    plane within ``slack`` of the best value at the best prior counts as
    passing through it, and one that changes by at most ``slack`` along the
    line as flat, so float noise neither widens nor splits the set.  Each
    edge is confirmed by a best response there; a failed edge adds a plane.
    """
    if len(amb.support) == 2:
        a, d = np.array([0.0, 1.0]), np.array([1.0, -1.0])
        bounds = amb.pair_range()
        s_ref, s_best = float(amb.reference[0]), float(best_w[0])
    else:
        a, d = amb.reference, best_w - amb.reference
        bounds = (0.0, 1.0)
        s_ref, s_best = 0.0, 1.0

    def interval() -> tuple[float, float]:
        left, right = bounds
        for cut in cuts:
            excess, slope = float(best_w @ cut) - best_v, float(d @ cut)
            excess = 0.0 if excess <= slack else excess
            if slope > slack:
                left = max(left, s_best - excess / slope)
            elif slope < -slack:
                right = min(right, s_best - excess / slope)
        return left, right

    for side in (0, 1) if len(amb.support) == 2 else (0,):
        while True:
            s = interval()[side]
            if s == s_best:
                break
            value, fresh = best_response(a + s * d)
            if value >= best_v - slack or not fresh:
                break
    left, right = interval()
    margin = min(0.25 * (right - left), PLATEAU_MARGIN)
    w_star = a + min(max(s_ref, left + margin), right - margin) * d
    if len(amb.support) == 2:
        return w_star, a + left * d, a + right * d
    return w_star, w_star, w_star


def check_gamma(mode: str, gamma: float | None) -> None:
    """Raise ValueError unless ``gamma`` suits the outer mode: entropic
    needs a finite gamma > 0, avar gamma in (0, 1), and robust takes none."""
    if mode == "entropic":
        if gamma is None or not gamma > 0.0:
            raise ValueError("entropic mode requires gamma > 0")
        if gamma == math.inf:
            raise ValueError("entropic mode requires a finite gamma")
    elif mode == "avar":
        if gamma is None or not 0.0 < gamma < 1.0:
            raise ValueError("avar mode requires gamma in (0, 1)")
    elif mode == "robust":
        if gamma is not None:
            raise ValueError("robust mode takes no gamma")
    else:
        raise ValueError(f"unknown mode {mode!r}; expected entropic, avar or robust")


def solve(
    model: StatisticalMDP, mode: str, prior: Belief, gamma: float | None = None
) -> SaddleResult:
    """Worst-case prior and a Bayes-optimal policy there, for one outer
    mode.

    entropic: the prior is the base of the relative-entropy penalty with
    weight 1/gamma.  avar: the prior is the base, and feasible priors have
    densities against it capped at 1/(1-gamma).  robust: every prior on
    the prior's support is feasible, there is no penalty, and on plateaus
    the maximizer closest to the point mass on the last support parameter
    along the search line is returned.
    """
    check_gamma(mode, gamma)
    if len(prior) != model.n_params:
        raise ValueError("prior dimension does not match the parameter set")
    if mode == "robust":
        return _solve(model, _Ambiguity(mode, prior.support()))
    return _solve(model, _Ambiguity(mode, prior.support(), prior, gamma))


def solve_entropic(model: StatisticalMDP, base_prior: Belief, gamma: float) -> SaddleResult:
    """``solve`` in entropic mode."""
    return solve(model, "entropic", base_prior, gamma)


def solve_avar(model: StatisticalMDP, base_prior: Belief, gamma: float) -> SaddleResult:
    """``solve`` in avar mode."""
    return solve(model, "avar", base_prior, gamma)


def solve_robust(
    model: StatisticalMDP, support: Sequence[int] | None = None
) -> SaddleResult:
    """``solve`` in robust mode over the given parameter indices (every
    parameter when omitted)."""
    return solve(model, "robust", _uniform(model.n_params, support))


def _uniform(size: int, support: Sequence[int] | None) -> Belief:
    indices = sorted(set(range(size) if support is None else (int(k) for k in support)))
    if not indices or indices[0] < 0 or indices[-1] >= size:
        raise ValueError(f"invalid support {tuple(indices)}")
    weights = np.zeros(size)
    weights[indices] = 1.0 / len(indices)
    return Belief(weights)


def certify_saddle(
    model: StatisticalMDP, result: SaddleResult, tol: float = 1e-6
) -> SaddleCertificate:
    """Check the returned pair.

    Prior side, exact: against the returned policy's cost profile C, the
    supremum of the penalized objective mu . C - penalty(mu) over every
    feasible prior is the dual risk of C (Donsker-Varadhan for entropic,
    the greedy fill for avar, the largest support coordinate for robust).
    It may exceed the objective at the returned prior by at most ``tol``.
    Policy side: the returned policy's Bayes cost at the returned prior
    matches a fresh Bayes solve within 1e-10.
    """
    amb = _Ambiguity(result.mode, result.support, result.base_prior, result.gamma)
    profile = result.cost_profile
    mu = result.worst_prior
    violation = amb.dual_risk(profile) - (float(mu.weights @ profile) - amb.penalty(mu))

    resolve = solve_bayes(model, mu)
    pi_error = abs(bayes_cost(model, result.policy, mu) - resolve.value)
    return SaddleCertificate(
        mu_side_ok=bool(violation <= tol),
        mu_side_violation=float(violation),
        pi_side_ok=bool(pi_error <= 1e-10),
        pi_side_error=float(pi_error),
        gap=result.gap,
        grid_points=0,
        tol=tol,
    )
