"""Master problems of the cutting-plane outer solver.

The outer solver keeps a set of cuts: cost profiles C_i of Bayes-optimal
policies, restricted to the parameters of the ambiguity set's support.
The Bayes value V(w) = min over policies of w . C is concave and piecewise
linear, and each cut is one of its supporting planes, so min_i w . C_i
bounds V from above.  The masters maximize that bound over the feasible
priors:

* ``lp_master``: max_w min_i w . C_i over the simplex with weight caps
  (AVaR and robust modes), a small linear program solved exactly by a dense
  simplex method with Bland's rule, for three or more support parameters;
* ``entropic_master``: max_w min_i w . C_i - KL(w || base)/gamma.  With
  three or more parameters it solves the dual min over mixtures lambda of
  the entropic risk of sum_i lambda_i C_i by line searches along Newton
  directions on lambda until its duality gap is within the outer loop's
  slack; the prior is the tilted prior of the mixed profile;
* with two parameters both are exact (``segment_master`` for the LP): on
  w = (s, 1 - s) the maximum lies at a crossing of two cuts, an end of the
  feasible s or (entropic) one cut's tilted prior, and ``_segment_max``
  returns the first best of these candidates.
"""

from __future__ import annotations

import math

import numpy as np

from .risk import _divergence_terms, _entropic, _tilted

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


def lp_master(cuts: np.ndarray, caps: np.ndarray) -> tuple[np.ndarray, float]:
    """Maximize min_i w . cuts[i] over {w >= 0, sum(w) = 1, w <= caps}.

    Returns (w, value).  The cuts are shifted and scaled into [1, 2]; with
    strictly positive cuts every optimum puts full mass on the simplex, so
    ``sum(w) <= 1`` replaces the equality and the origin is a feasible
    starting basis.  Caps of 1 or more are implied by the simplex and
    dropped.
    """
    m, n = cuts.shape
    low = float(cuts.min())
    span = float(cuts.max()) - low or 1.0
    capped = [k for k in range(n) if caps[k] < 1.0]
    rows = m + 1 + len(capped)
    width = n + 1 + rows  # columns: w, z, slacks; the last column is the rhs
    tableau = np.zeros((rows + 1, width + 1))
    tableau[:m, :n] = -((cuts - low) / span + 1.0)
    tableau[:m, n] = 1.0
    tableau[m, :n] = 1.0
    tableau[m, -1] = 1.0
    for r, k in enumerate(capped, start=m + 1):
        tableau[r, k] = 1.0
        tableau[r, -1] = caps[k]
    tableau[:rows, n + 1 : width] = np.eye(rows)
    tableau[-1, n] = -1.0
    basis = list(range(n + 1, width))
    while True:
        entering = next((j for j in range(width) if tableau[-1, j] < -PIVOT_TOL), None)
        if entering is None:
            break
        column = tableau[:rows, entering]
        _, _, r = min(
            (tableau[q, -1] / column[q], basis[q], q)
            for q in range(rows)
            if column[q] > PIVOT_TOL
        )
        tableau[r] /= tableau[r, entering]
        for q in range(rows + 1):
            if q != r:
                tableau[q] -= tableau[q, entering] * tableau[r]
        basis[r] = entering
    w = np.zeros(n)
    for r, j in enumerate(basis):
        if j < n:
            w[j] = max(tableau[r, -1], 0.0)
    w /= w.sum()
    return w, float((cuts @ w).min())


def segment_ends(caps: np.ndarray) -> tuple[float, float]:
    """The feasible s of w = (s, 1 - s) under the weight caps: [lo, hi]."""
    return max(0.0, 1.0 - float(caps[1])), min(1.0, float(caps[0]))


def segment_master(cuts: np.ndarray, caps: np.ndarray) -> tuple[np.ndarray, float]:
    """``lp_master`` for two parameters; the ends of the feasible s first."""
    lo, hi = segment_ends(caps)
    return _segment_max(cuts, lo, hi, (lo, hi))


def entropic_master(
    cuts: np.ndarray, base: np.ndarray, gamma: float
) -> tuple[np.ndarray, float]:
    """Maximize min_i w . cuts[i] - KL(w || base)/gamma over the simplex.

    Returns (w, upper): with two parameters ``_segment_max``, whose
    ``upper`` is the primal value at w, exact to rounding.  With more, by
    minimax the maximum equals the minimum over mixtures lambda of
    F(lambda) = rho(lambda . cuts), rho(c) = log(base . exp(gamma c))/gamma,
    whose gradient is g_i = w . cuts[i] at the tilted prior w proportional
    to base * exp(gamma * lambda . cuts).  rho is ``risk._entropic`` and w
    ``risk._tilted``, so F keeps its precision at small gamma, where a
    log-sum-exp divided by gamma loses eps/gamma and would end the outer
    loop short of its slack.  The first step puts lambda on the cut of
    least F; each later one moves lambda to the minimum of F
    along the Newton direction on the face of the active cuts plus the one
    with the least g or, where that direction is not a feasible descent,
    along the pairwise direction from the worst active cut to that one.
    The line minimum is found from derivatives, which keep their sign where
    F's float values no longer change.  ``upper`` = F(lambda) bounds the
    maximum for every lambda.

    The steps stop once the duality gap lambda . g - min g, which bounds
    ``upper`` minus the maximum, is at most ``CUT_SLACK`` times the largest
    absolute cut entry; the outer loop's slack is never smaller.  At
    extreme gamma float noise floors the gap above that, so the steps also
    stop once neither F nor the gap has decreased for ``STALL_STEPS``
    steps, or after ``MAX_MASTER_STEPS``.
    """
    if len(base) == 2:
        return _segment_max(cuts, 0.0, 1.0, (), base, gamma)
    m, log_base = len(cuts), np.log(base)
    tol = CUT_SLACK * float(np.abs(cuts).max())
    lam = np.zeros(m)
    lam[np.argmin([_entropic(cut, base, gamma) for cut in cuts])] = 1.0
    least_gap = lowest = math.inf
    stalled = 0
    for steps in range(MAX_MASTER_STEPS + 1):
        mixed = lam @ cuts
        w, f = _tilted(mixed, log_base, gamma), _entropic(mixed, base, gamma)
        g = cuts @ w
        j = int(np.argmin(g))
        gap = float(lam @ g) - float(g[j])
        stalled = 0 if gap < least_gap or f < lowest else stalled + 1
        least_gap, lowest = min(least_gap, gap), min(lowest, f)
        if gap <= tol or stalled >= STALL_STEPS or steps == MAX_MASTER_STEPS:
            break
        d = _face_newton(lam, cuts, j, w, g, gamma)
        shrinking = np.nonzero(d < 0.0)[0]
        if not (float(g @ d) < 0.0 and len(shrinking) and lam[shrinking].min() > 0.0):
            active = np.nonzero(lam > 0.0)[0]
            i = int(active[np.argmax(g[active])])
            if i == j:
                break
            d = np.zeros(m)
            d[j], d[i] = 1.0, -1.0
            shrinking = np.array([i])
        limits = lam[shrinking] / -d[shrinking]
        t_max = float(limits.min())
        t = _newton_line(mixed, d @ cuts, w, min(1.0, t_max), log_base, gamma)
        lam = lam + t * d
        if t == t_max:
            lam[shrinking[np.argmin(limits)]] = 0.0
        lam = np.maximum(lam, 0.0)
        lam /= lam.sum()
    return w, f


def _segment_max(cuts, lo, hi, ends, base=None, gamma=None) -> tuple[np.ndarray, float]:
    """(w, f(w)) for the first w = (s, 1 - s) of largest f(w) = min_i w .
    cuts[i], less KL(w || base)/gamma given a ``base``, among: s in
    ``ends``, the crossings s = (a_j - a_i)/(b_i - b_j) in (lo, hi) of the
    cuts a_i + s b_i, by i then j, and given a base each cut's tilted prior.
    Only quotients below 1 in size are divided, so (near-)parallel cuts
    neither divide by zero nor overflow; a segment's few cuts are cheaper
    as Python floats than as arrays.  At a crossing the entropic dual
    mixture is lambda_i b_i + lambda_j b_j = (logit s - logit base_0)/gamma."""
    lines = [(c1, c0 - c1) for c0, c1 in cuts.tolist()]
    s = list(ends)
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
    face = np.nonzero((lam > 0.0) | (np.arange(len(lam)) == j))[0]
    k = len(face)
    rows = cuts[face] - g[face, None]
    hess = gamma * (rows * w) @ rows.T
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = hess + max(1e-12 * np.trace(hess) / k, 1e-150) * np.eye(k)
    kkt[:k, k] = kkt[k, :k] = 1.0
    d = np.zeros(len(lam))
    d[face] = np.linalg.solve(kkt, np.append(-g[face], 0.0))[:k]
    return d / max(1.0, float(np.abs(d).max()))


def _newton_line(
    profile: np.ndarray, d: np.ndarray, w: np.ndarray, t_max: float, log_base, gamma: float
) -> float:
    """Minimizer over [0, t_max] of the convex rho(profile + t d), whose
    derivative is w(t) . d, w(t) the tilted prior of profile + t d under
    the base of log ``log_base`` (``risk._tilted``); ``w`` is w(0).  Newton
    steps, bisection whenever a step would leave the bracket; the search
    ends where a Newton step rounds to the current point, or the bracket
    has shrunk to float noise.  rho's own values are never read."""
    if _tilted(profile + t_max * d, log_base, gamma) @ d <= 0.0:
        return t_max
    lo, hi, t = 0.0, t_max, 0.0
    for _ in range(200):
        slope = float(w @ d)
        if slope > 0.0:
            hi = t
        else:
            lo = t
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
