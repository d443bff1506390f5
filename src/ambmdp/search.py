"""Master problems of the cutting-plane outer solver.

The outer solver keeps a set of cuts: cost profiles C_i of Bayes-optimal
policies, restricted to the parameters of the ambiguity set's support.
The Bayes value V(w) = min over policies of w . C is concave and piecewise
linear, and each cut is one of its supporting planes, so min_i w . C_i
bounds V from above.  The masters maximize that bound over the feasible
priors:

* ``_segment_max``, exact, for two parameters: on w = (s, 1 - s) the
  maximum lies at a crossing of two cuts, an end of the feasible s (avar
  and robust) or one cut's tilted prior (entropic), and it returns the
  first best of these candidates;
* ``LpTableau``: max_w min_i w . C_i over the simplex with weight caps
  (avar and robust modes), a small linear program solved exactly by a
  dense simplex method with Bland's rule.  An outer solve keeps one
  tableau, scaled once by the cost bounds, to which each master step adds
  its new cuts and then makes rank-1 dual simplex pivots;
* ``entropic_master``: max_w min_i w . C_i - KL(w || base)/gamma, by the
  dual min over mixtures lambda of the entropic risk of sum_i lambda_i C_i,
  with Newton steps on lambda, most of them one pass over the exponentials
  (``risk._tilt``), until its duality gap is within the outer loop's
  slack; the prior is the tilted prior of the mixture.
"""

from __future__ import annotations

import math

import numpy as np

from .risk import _divergence_terms, _tilt, _tilted

#: pivot and reduced-cost threshold of the simplex method; the tableau is
#: scaled so that cut entries lie in [1, 2]
PIVOT_TOL = 1e-12
#: the outer loop's bounds have met once they differ by at most this times
#: the cost scale, the largest absolute cost bound of the model; the
#: entropic master stops at a duality gap of at most this times its largest
#: absolute cut entry, which the cost scale bounds
CUT_SLACK = 1e-12
#: where float noise floors the entropic master's duality gap above its
#: threshold (at extreme gamma), it stops once neither its objective nor the
#: gap has decreased for this many consecutive steps
STALL_STEPS = 3
#: hard cap on entropic master steps
MAX_MASTER_STEPS = 10_000
#: a Newton step of the entropic master is taken whole once it decreases F by
#: at least this fraction of the decrease its slope at 0 predicts
ARMIJO = 1e-4


class LpTableau:
    """One outer solve's simplex tableau of max_w min_i w . cuts[i] over {w
    >= 0, sum(w) <= 1, w <= caps}, caps of 1 or more dropped.  Rows: reduced
    costs, ``sum(w) <= 1``, one per cap below 1, one per cut; columns: the
    right-hand side, w, z, a slack per row; ``basis[r]`` is row r + 1's
    basic column.  The range it is built with scales every cut (into [1, 2]
    if the range holds it), so that a row never changes once added; with
    positive scaled cuts every optimum has sum(w) = 1."""

    def __init__(self, caps: np.ndarray, low: float, high: float):
        n, capped = len(caps), [k for k in range(len(caps)) if caps[k] < 1.0]
        rows = 1 + len(capped)
        self.n, self.low, self.span, self.cuts = n, low, high - low or 1.0, 0
        self.table = np.zeros((rows + 1, n + 2 + rows))
        self.table[0, n + 1] = -1.0  # maximize z
        self.table[1, : n + 1] = 1.0
        for r, k in enumerate(capped, start=2):
            self.table[r, 1 + k], self.table[r, 0] = 1.0, caps[k]
        self.table[1:, n + 2 :] = np.eye(rows)
        self.basis = list(range(n + 2, n + 2 + rows))

    def resume(self, cuts: np.ndarray) -> tuple[np.ndarray, float]:
        """(w, min_i w . cuts[i]) at the optimal w once a row z <= w . cut,
        written in the basis, is added for each cut past those held: dual
        simplex steps while a basic variable is negative, else primal ones
        while a reduced cost is, by Bland's rule, each pivot one rank-1
        update; the first call starts from the origin."""
        fresh, n, (rows, cols) = cuts[self.cuts :], self.n, self.table.shape
        table, basis = np.zeros((rows + len(fresh), cols + len(fresh))), self.basis
        table[:rows, :cols], self.cuts = self.table, len(cuts)
        new = table[rows:]
        new[:, 1 : n + 1] = -((fresh - self.low) / self.span + 1.0)
        new[:, n + 1] = 1.0
        new[:, :cols] -= new[:, basis] @ table[1:rows, :cols]
        new[:, cols:] = np.eye(len(fresh))
        basis += range(cols, table.shape[1])
        while True:
            rhs, cost = table[1:, 0].tolist(), table[0].tolist()
            negative = [(j, r) for r, j in enumerate(basis) if rhs[r] < -PIVOT_TOL]
            if negative:  # the least basic column leaves; the least ratio enters
                row = table[1 + (r := min(negative)[1])].tolist()
                columns = [j for j in range(1, len(row)) if row[j] < -PIVOT_TOL]
                e = min(columns, key=lambda j: (cost[j] / -row[j], j))
            else:  # the first column enters; the least ratio, then basic column, leaves
                e = next((j for j in range(1, len(cost)) if cost[j] < -PIVOT_TOL), 0)
                if not e:
                    break
                column = table[1:, e].tolist()
                positive = [q for q in range(len(rhs)) if column[q] > PIVOT_TOL]
                r = min(positive, key=lambda q: (rhs[q] / column[q], basis[q]))
            pivot = table[r + 1] / table[r + 1, e]
            table -= table[:, e, None] * pivot
            table[r + 1] = pivot
            basis[r] = e
        self.table, x = table, np.zeros(table.shape[1])
        x[basis] = np.maximum(table[1:, 0], 0.0)
        w = x[1 : n + 1] / x[1 : n + 1].sum()
        return w, float((cuts @ w).min())


def entropic_master(
    cuts: np.ndarray, base: np.ndarray, gamma: float
) -> tuple[np.ndarray, float]:
    """Maximize min_i w . cuts[i] - KL(w || base)/gamma over the simplex.

    Returns (w, upper).  By minimax the maximum equals the minimum over
    mixtures lambda of
    F(lambda) = rho(lambda . cuts), rho(c) = log(base . exp(gamma c))/gamma,
    whose gradient is g_i = w . cuts[i] at the tilted prior w proportional
    to base * exp(gamma * lambda . cuts); ``_tilt`` gives w and F in one
    pass.  The first step puts lambda on the cut of least F; each later one
    moves it along the Newton direction on the face of the active cuts plus
    the one with the least g or, where that is not a feasible descent, from
    the worst active cut to that one.  The end of the line (the whole
    Newton step, or the face's boundary) is taken where F still descends
    there or, on a Newton direction, has decreased by ``ARMIJO`` of what
    its slope predicts; else the line minimum, found from derivatives,
    which keep their sign where F's float values no longer change.
    ``upper`` = F(lambda) bounds the maximum for every lambda.  The steps run
    on the cuts mapped onto [0, 1] and gamma times their span, so that no
    cost scale under- or overflows them.

    The steps stop once the duality gap lambda . g - min g, which bounds
    ``upper`` minus the maximum, is at most ``CUT_SLACK`` times the largest
    absolute cut entry; the outer loop's slack is never smaller.  At
    extreme gamma float noise floors the gap above that, so the steps also
    stop once neither F nor the gap has decreased for ``STALL_STEPS``
    steps, or after ``MAX_MASTER_STEPS``.
    """
    low, span = float(cuts.min()), float(np.ptp(cuts)) or 1.0
    log_base, tol = np.log(base), CUT_SLACK * float(np.abs(cuts).max()) / span
    cuts, gamma = (cuts - low) / span, gamma * span
    starts = [_tilt(cut, base, log_base, gamma) for cut in cuts]
    i = min(range(len(cuts)), key=lambda i: starts[i][1])
    lam, (w, f) = np.eye(len(cuts))[i], starts[i]
    least_gap, lowest, stalled = math.inf, math.inf, 0
    for steps in range(MAX_MASTER_STEPS + 1):
        g = cuts @ w
        j = int(g.argmin())
        gap = float(lam @ g - g[j])
        stalled = 0 if gap < least_gap or f < lowest else stalled + 1
        least_gap, lowest = min(least_gap, gap), min(lowest, f)
        if gap <= tol or stalled >= STALL_STEPS or steps == MAX_MASTER_STEPS:
            break
        d, weights = _face_newton(lam, cuts, j, w, g, gamma), lam.tolist()
        descent, moves = float(g @ d), d.tolist()
        limits = [(weights[k] / -moves[k], k) for k in range(len(moves)) if moves[k] < 0.0]
        newton = descent < 0.0 and limits and min(limits)[0] > 0.0
        if not newton:
            i = max((k for k in range(len(weights)) if weights[k] > 0.0), key=g.item)
            d = np.zeros(len(cuts))
            d[j], d[i] = 1.0, -1.0
            descent, limits = float(g[j] - g[i]), [(weights[i], i)]
        (t_max, hit), line = min(limits), d @ cuts
        t = min(1.0, t_max)
        for searched in (False, True):
            trial = lam + t * d
            if t == t_max:
                trial[hit] = 0.0
            trial = np.maximum(trial, 0.0)
            trial /= trial.sum()
            trial_w, trial_f = _tilt(trial @ cuts, base, log_base, gamma)
            if searched or trial_w @ line <= 0.0 or newton and trial_f <= f + ARMIJO * t * descent:
                break
            t = _newton_line(lam @ cuts, line, w, t, log_base, gamma)
        lam, w, f = trial, trial_w, trial_f
    return w, low + span * f


def _segment_max(cuts, lo, hi, base=None, gamma=None) -> tuple[np.ndarray, float]:
    """(w, f(w)) for the first w = (s, 1 - s) of largest f(w) = min_i w .
    cuts[i], less KL(w || base)/gamma given a ``base``, among: the ends lo
    and hi if no base is given, the crossings s = (a_j - a_i)/(b_i - b_j) in
    (lo, hi) of the cuts a_i + s b_i, by i then j, and each cut's tilted
    prior if a base is.  Only quotients below 1 in size are divided, so
    (near-)parallel cuts neither divide by zero nor overflow; a segment's
    few cuts are cheaper as Python floats than as arrays.  At a crossing the
    entropic dual mixture is lambda_i b_i + lambda_j b_j = (logit s - logit
    base_0)/gamma."""
    lines = [(c1, c0 - c1) for c0, c1 in cuts.tolist()]
    s = [lo, hi] if base is None else []
    for ai, bi in lines:
        for aj, bj in lines:
            if abs(aj - ai) < abs(bi - bj) and lo < (q := (aj - ai) / (bi - bj)) < hi:
                s.append(q)
    n = len(s)
    tilted = np.empty((0, 2)) if base is None else _tilted(cuts, np.log(base), gamma)
    w = np.empty((2, n + len(tilted)))
    w[0, :n] = s
    w[1, :n] = 1.0 - w[0, :n]
    w[:, n:] = tilted.T
    f = (cuts @ w).min(axis=0)
    if base is not None:
        f -= _divergence_terms(w, base[:, None]).sum(axis=0) / gamma
    k = int(f.argmax())
    return w[:, k], float(f[k])


def _face_newton(lam, cuts, j, w, g, gamma) -> np.ndarray:
    """Newton direction for F on the face of the active cuts and cut j,
    scaled to entries of at most 1.  The Hessian, gamma times the
    w-covariance of the face's cuts, is formed from centred rows so that it
    stays positive semidefinite in floats.  A ridge of 1e-12 of its mean
    diagonal keeps the system regular when the face's cuts are affinely
    dependent up to constants; F is linear along such a dependence, and the
    line search ends the long move along it at the face's boundary."""
    face = np.flatnonzero((lam > 0.0) | (np.arange(len(lam)) == j))
    k, rows = len(face), cuts[face] - g[face, None]
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = gamma * (rows * w) @ rows.T
    kkt[k, k] = 0.0
    kkt.flat[: k * (k + 2) : k + 2] += max(1e-12 * kkt.trace() / k, 1e-150)
    d = np.zeros(len(lam))
    d[face] = np.linalg.solve(kkt, np.append(-g[face], 0.0))[:k]
    return d / max(1.0, float(np.abs(d).max()))


def _newton_line(
    profile: np.ndarray, d: np.ndarray, w: np.ndarray, t_max: float, log_base, gamma: float
) -> float:
    """Minimizer over [0, t_max] of the convex rho(profile + t d), whose
    derivative w(t) . d is negative at 0 and positive at ``t_max``, w(t)
    the tilted prior of profile + t d under the base of log ``log_base``
    (``risk._tilted``); ``w`` is w(0).  Newton steps, bisection whenever a
    step would leave the bracket, until a Newton step rounds to the current
    point or the bracket shrinks to float noise; rho is never read."""
    lo, hi, t = 0.0, t_max, 0.0
    for _ in range(200):
        slope = float(w @ d)
        lo, hi = (lo, t) if slope > 0.0 else (t, hi)
        curvature = gamma * float(w @ (d - slope) ** 2)
        # a step longer than the bracket is not taken, so it is not divided
        # out either: with a subnormal curvature the quotient overflows
        if curvature > 0.0 and abs(slope) <= curvature * (hi - lo):
            step = t - slope / curvature
            if step == t:
                break
        else:
            step = hi
        t_next = step if lo < step < hi else 0.5 * (lo + hi)
        if t_next == t or hi - lo <= 1e-16 * t_max:
            break
        t = t_next
        w = _tilted(profile + t * d, log_base, gamma)
    return t
