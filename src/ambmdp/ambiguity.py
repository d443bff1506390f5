"""Outer prior optimization and saddle-point assembly.

``solve(model, mode, prior, gamma)`` is the one entry point; the mode
names the ambiguity set, and ``solve_entropic`` and ``solve_avar`` are
shorthands for two of its modes.  Every mode-specific
choice (feasible priors, penalty, dual risk, master problem) is made here,
by the private ``_Ambiguity`` object, once per solve.  Each mode
maximizes a concave function of the prior whose inner value is an exact
Bayes solve:

* entropic mode maximizes  inner(mu) - relative_entropy(mu, base)/gamma
  over the simplex restricted to the base prior's support;
* avar mode maximizes  inner(mu)  over the priors within
  ``risk._avar_caps`` of the base, the polytope ``avar_quantile`` fills;
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
loop stops when the bounds meet to float slack.  Deterministic policies
are finite, so the loop ends after finitely many steps with the exact
maximum.  Two support parameters take the exact segment master, more
the entropic dual master or one simplex tableau per solve, scaled once by
the model's cost bounds, which its masters resume.

A two-parameter entropic solve starts from its support's segment planes,
the first round of the sandwich rule: the Bayes planes at both point
masses and, when those differ, at their crossing, solved once per DAG and
support and kept on the DAG, deduplicated to the loop's slack and stacked
into their cut matrix once.  The loop always takes a master step after
the reference best response and certifies its answer by its own stop
rule.  Only there are seeds exact to the bit: that objective is strictly
concave and its master exact, so extra cuts change the path, not the
maximizer.  An avar or robust argmax can be a face, where the point a
master returns depends on the cuts held, and the master of three or more
parameters is not exact to the bit.

Every solve returns the loop's best prior, the first best response with
the largest objective, as the ``Belief`` that response was solved at; by
the minimax theorem any maximizer with a certified Bayes policy is an
answer.  Of the held planes through that prior, to the loop's slack, it
returns the policy of least dual risk (the first on a tie), viewed at that
prior, with its cost profile and its dual risk minus the outer value as
the duality gap.  The best response there is among them, so the gap never
exceeds that of the Bayes tie-break's policy.  Every Bayes solve runs over
the model's one belief DAG, which holds the branches of every parameter,
so cost profiles are exact even at priors that give a parameter zero
weight.  By the same duality the prior side of the saddle certificate is
exact and costs O(K): the supremum over the feasible priors of mu . C -
penalty(mu) is the dual risk of C, so ``certify_saddle`` compares that
with the objective at the returned prior.  Its policy side compares the
returned policy's Bayes cost there with the Bayes value, and the DAG's
memos answer both: ``solve_bayes`` with the loop's own solve, by the
prior's bits, and ``policy_cost_profile`` with each distinct policy's one
evaluation pass, by its pairs.  Both sides allow slack in proportion to
the model's cost scale.

Plateaus: the avar and robust argmax can be a face.  With two support
parameters a master step onto it lands on an end of the feasible interval
that it reaches, else on a crossing of two planes (the master's first best
candidate, ends first).  The planes are intersected with the line
(s, 1 - s) of feasible priors, each edge found is confirmed by a best
response there (a failed edge adds a plane), and the edges are reported
beside the returned prior.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .bayes import DeterministicPolicy, ValueSolution, bayes_cost, solve_bayes
from .model import Belief, StatisticalMDP, _check_prior
from .risk import _avar_caps, _check_gamma, _tilt, avar_quantile, relative_entropy
from .search import CUT_SLACK, LpTableau, _segment_max, entropic_master

#: the certificate's prior and policy sides allow these times the cost scale
PRIOR_SIDE_SLACK = 1e-10
POLICY_SIDE_SLACK = 1e-12


class SaddleResult(namedtuple("SaddleResult", "mode worst_prior worst_prior_lo worst_prior_hi "
                                              "policy value gap gamma base_prior support "
                                              "cost_profile trace")):
    """Saddle-point solve output: the ``mode``, the worst prior and its
    plateau edges (each a ``Belief``), the ``DeterministicPolicy`` viewed
    at ``worst_prior``, its ``value`` and duality ``gap`` (floats),
    ``gamma`` (a float, None for robust), ``base_prior`` (a ``Belief``,
    None for robust), the ``support`` (a tuple of parameter indices), the
    policy's ``cost_profile``, a (K,) array, and the ``trace``.

    ``worst_prior_lo`` / ``worst_prior_hi`` are the plateau edges of an
    avar or robust solve with two support parameters, on the line of its
    feasible priors; every other solve reports ``worst_prior`` in both.
    ``trace`` records every prior at which this solve computed a best
    response, as (``Belief``, outer objective value) pairs; seed solves
    are not in it.
    """

    __slots__ = ()


class SaddleCertificate(namedtuple("SaddleCertificate", "mu_side_ok mu_side_violation pi_side_ok "
                                                        "pi_side_error gap grid_points tol")):
    """Saddle-point checks: no feasible prior improves on the returned one
    against the returned policy (prior side, in closed form, within
    ``tol``), and the policy is Bayes-optimal at the returned prior (policy
    side).  The ``_ok`` fields are bools, ``grid_points`` an int and the
    rest floats.  ``grid_points`` is always 0: no prior grid is scanned.
    The field stays so that artifacts and their readers keep their keys."""

    __slots__ = ()


class _Ambiguity:
    """Feasible priors, penalty, dual risk and master of one solver mode.
    Weight vectors are indexed by position in ``support``."""

    def __init__(
        self,
        mode: str,
        support: tuple[int, ...],
        base: Belief | None = None,
        gamma: float | None = None,
    ):
        self.mode, self.support, self.base, self.gamma = mode, support, base, gamma
        self.index = np.array(support, dtype=int)
        #: first prior of the search: the base, or (robust) the last support vertex
        self.reference = np.eye(len(support))[-1] if base is None else base.weights[self.index]

    def pick_master(self, cost_bounds: tuple[float, float]) -> None:
        """Bind ``master``, cuts -> (w, upper), for one solve by the mode and
        the support size: on two parameters ``_segment_max`` on w = (s, 1 -
        s), with ``ends`` the feasible interval of s (avar, robust) or None
        (entropic, over [0, 1]); else ``entropic_master`` or one
        ``LpTableau`` scaled by ``cost_bounds``, which hold every cut."""
        k, entropic = len(self.support), self.mode == "entropic"
        caps = _avar_caps(self.reference, self.gamma) if self.mode == "avar" else np.ones(k)
        self.ends = None
        if k == 2 and entropic:  # with each cut's tilted prior
            self.master = lambda cuts: _segment_max(cuts, 0.0, 1.0, self.reference, self.gamma)
        elif k == 2:  # over the s that the caps leave, ends first
            self.ends = lo, hi = max(0.0, 1.0 - float(caps[1])), min(1.0, float(caps[0]))
            self.master = lambda cuts: _segment_max(cuts, lo, hi)
        elif entropic:
            self.master = lambda cuts: entropic_master(cuts, self.reference, self.gamma)
        else:
            self.master = LpTableau(caps, *cost_bounds).resume

    def penalty(self, mu: Belief) -> float:
        if self.mode == "entropic":
            return relative_entropy(mu, self.base) / self.gamma
        return 0.0

    def dual_risk(self, profile: np.ndarray) -> float:
        if self.mode == "entropic":  # solve checked gamma against cost bounds that hold the profile
            return _tilt(profile[self.index], self.reference, np.log(self.reference), self.gamma)[1]
        if self.mode == "avar":
            return avar_quantile(profile, self.base, self.gamma)
        return float(profile[self.index].max())

    def embed(self, size: int, w: np.ndarray) -> Belief:
        full = np.zeros(size)
        full[self.index] = w
        return Belief(full)


def _cost_scale(model: StatisticalMDP) -> float:
    """The largest absolute cost bound of the model."""
    return max(map(abs, model.cost_bounds))


def gap_tolerance(model: StatisticalMDP) -> float:
    """``PRIOR_SIDE_SLACK`` times the cost scale: the largest duality gap that
    certificates, the weak duality guard and figure summaries take as noise."""
    return PRIOR_SIDE_SLACK * _cost_scale(model)


def _hold(
    held: list, cuts: np.ndarray, solution: ValueSolution, amb: _Ambiguity, slack: float
) -> np.ndarray:
    """``cuts`` with the solution's support costs as a new row, and its
    (costs, pairs) appended to ``held``, unless a row lies within slack."""
    cut = solution.costs.take(amb.index)
    if len(cuts) and float(np.abs(cuts - cut).max(axis=1).min()) <= slack:
        return cuts
    held.append((solution.costs, solution.policy.pairs))
    return np.vstack((cuts, cut))


def _segment_planes(model: StatisticalMDP, amb: _Ambiguity) -> tuple[tuple, np.ndarray]:
    """The read-only (costs, pairs) of the segment planes of a two-parameter
    support (see the module docstring), each unless an earlier one lies
    within the loop's slack, and their read-only cut matrix."""
    seeds = getattr(model.belief_dag, "segments", {}).get(amb.support)
    if seeds is None:
        ends = [solve_bayes(model, amb.embed(model.n_params, w)) for w in np.eye(2)]
        (a0, a1), (b0, b1) = (end.costs.take(amb.index).tolist() for end in ends)
        bend = a0 - a1 - b0 + b1  # the slope in s of plane a minus that of plane b
        s = (b1 - a1) / bend if bend else 0.0
        if 0.0 < s < 1.0:
            ends.append(solve_bayes(model, amb.embed(model.n_params, np.array([s, 1.0 - s]))))
        slack, planes, cuts = CUT_SLACK * _cost_scale(model), [], np.empty((0, 2))
        for end in ends:
            cuts = _hold(planes, cuts, end, amb, slack)
        cuts.flags.writeable = False
        seeds = model.belief_dag.segments[amb.support] = (tuple(planes), cuts)
    return seeds


def _solve(model: StatisticalMDP, amb: _Ambiguity) -> SaddleResult:
    """The cutting-plane loop, then the plateau edges and the result."""
    slack = CUT_SLACK * _cost_scale(model)
    trace: list[tuple[Belief, float]] = []
    held, cuts = [], np.empty((0, len(amb.support)))  # a cut row per held (costs, pairs)
    amb.pick_master(model.cost_bounds)
    if len(amb.support) == 2 and amb.ends is None:  # an entropic segment: its planes seed
        seeds, cuts = _segment_planes(model, amb)
        held = list(seeds)

    def best_response(w: np.ndarray) -> tuple[float, bool, ValueSolution]:
        """Outer objective at the prior w, whether the best response's
        plane was new (and added), and the best response's solve."""
        nonlocal cuts
        mu = amb.embed(model.n_params, w)
        solution = solve_bayes(model, mu)
        value = solution.value - amb.penalty(mu)
        trace.append((mu, value))
        held_before = len(held)
        cuts = _hold(held, cuts, solution, amb, slack)
        return value, len(held) > held_before, solution

    best_w = w = amb.reference
    best_v, _, best = best_response(w)
    fresh = True  # one master step, even when the reference plane is a seed
    while fresh:
        w, upper = amb.master(cuts)
        if upper - best_v <= slack:
            break
        value, fresh, solution = best_response(w)
        if value > best_v:
            best_w, best_v, best = w, value, solution

    worst = best.tree.prior
    lo = hi = worst
    if amb.ends is not None:  # the plateau edges on the line a + s d = (s, 1 - s), s in ends
        a, d = np.array([0.0, 1.0]), np.array([1.0, -1.0])
        s_best = float(best_w[0])

        def interval() -> tuple[float, float]:
            """Where the lowest plane falls below the best value.  A plane
            within slack of it at the best prior passes through it, and one
            that changes by at most slack along the line is flat, so float
            noise neither widens nor splits the set."""
            left, right = amb.ends
            for excess, slope in zip((cuts @ best_w - best_v).tolist(), (cuts @ d).tolist()):
                excess = 0.0 if excess <= slack else excess
                if slope > slack:
                    left = max(left, s_best - excess / slope)
                elif slope < -slack:
                    right = min(right, s_best - excess / slope)
            return left, right

        for side in (0, 1):
            while True:
                s = interval()[side]
                if s == s_best:
                    break
                value, fresh, _ = best_response(a + s * d)
                if value >= best_v - slack or not fresh:
                    break
        lo, hi = (amb.embed(model.n_params, a + s * d) for s in interval())
    # the held planes through the returned prior, to slack, are its Bayes policies
    heights = cuts @ best_w
    tied = [plane for plane, h in zip(held, heights) if h <= heights.min() + slack]
    (costs, pairs), risk = min(((p, amb.dual_risk(p[0])) for p in tied), key=lambda pr: pr[1])
    raw_gap = risk - best_v
    if raw_gap < -gap_tolerance(model):
        raise RuntimeError(
            f"weak duality violated (gap {raw_gap}); this indicates a defect "
            "in the outer search or the risk evaluation"
        )
    return SaddleResult(
        mode=amb.mode,
        worst_prior=worst,
        worst_prior_lo=lo,
        worst_prior_hi=hi,
        policy=DeterministicPolicy.from_pairs(best.tree, pairs),
        value=best_v,
        gap=max(raw_gap, 0.0),
        gamma=amb.gamma,
        base_prior=amb.base,
        support=amb.support,
        cost_profile=costs,
        trace=tuple(trace),
    )


def check_gamma(model: StatisticalMDP, mode: str, gamma: float | None) -> None:
    """``risk._check_gamma`` for the outer mode on the model's cost bounds."""
    _check_gamma(mode, gamma, model.cost_bounds)


def solve(
    model: StatisticalMDP, mode: str, prior: Belief, gamma: float | None = None
) -> SaddleResult:
    """Worst-case prior and a Bayes-optimal policy there, for one outer
    mode.

    entropic: the prior is the base of the relative-entropy penalty with
    weight 1/gamma.  avar: the prior is the base, and feasible priors have
    densities against it capped at 1/(1-gamma).  robust: every prior on
    the prior's support is feasible and there is no penalty.  The module
    docstring says which maximizer a plateau returns.
    """
    check_gamma(model, mode, gamma)
    _check_prior(model, prior)
    base = None if mode == "robust" else prior
    return _solve(model, _Ambiguity(mode, prior.support(), base, gamma))


def solve_entropic(model: StatisticalMDP, base_prior: Belief, gamma: float) -> SaddleResult:
    """``solve`` in entropic mode."""
    return solve(model, "entropic", base_prior, gamma)


def solve_avar(model: StatisticalMDP, base_prior: Belief, gamma: float) -> SaddleResult:
    """``solve`` in avar mode."""
    return solve(model, "avar", base_prior, gamma)


def certify_saddle(model: StatisticalMDP, result: SaddleResult) -> SaddleCertificate:
    """Check the returned pair.

    Prior side, exact: against the returned policy's cost profile C, the
    supremum of the penalized objective mu . C - penalty(mu) over every
    feasible prior is the dual risk of C (Donsker-Varadhan for entropic,
    the greedy fill for avar, the largest support coordinate for robust).
    It may exceed the objective at the returned prior by at most
    ``PRIOR_SIDE_SLACK`` times the cost scale, the certificate's ``tol``.
    Policy side: the returned policy's Bayes cost at the returned prior
    matches the Bayes value there within ``POLICY_SIDE_SLACK`` times the
    cost scale.  The DAG's memos answer both; each entry depends only on
    the DAG and the bits of its key.
    """
    amb = _Ambiguity(result.mode, result.support, result.base_prior, result.gamma)
    profile = result.cost_profile
    mu = result.worst_prior
    violation = amb.dual_risk(profile) - (float(mu.weights @ profile) - amb.penalty(mu))
    scale = _cost_scale(model)
    tol = gap_tolerance(model)
    pi_error = abs(bayes_cost(model, result.policy, mu) - solve_bayes(model, mu).value)
    return SaddleCertificate(
        mu_side_ok=bool(violation <= tol),
        mu_side_violation=float(violation),
        pi_side_ok=bool(pi_error <= POLICY_SIDE_SLACK * scale),
        pi_side_error=float(pi_error),
        gap=result.gap,
        grid_points=0,
        tol=tol,
    )
