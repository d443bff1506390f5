"""Posterior belief updates and the predictive state distribution.

All three operations are pure functions of immutable inputs, and each forms
its posteriors by ``_posterior``, Bayes' rule, exact for finite parameter
sets: new weights are proportional to ``likelihood(theta) *
old_weight(theta)``.  When the total posterior mass of an observation is
zero the belief is returned unchanged; such branches carry zero probability
in every expectation, so the convention never affects values.  No solver
path imports this module; tests check ``bayes`` by it.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import InfeasibleActionError
from .model import SUM_TOL, Belief, StatisticalMDP, _check_masses, _check_prior, _count


class PredictiveDistribution(namedtuple("PredictiveDistribution", "masses posteriors")):
    """Mixture distribution of the next state, a read-only (E,) array of
    masses, with the posterior ``Belief`` reached on observing each next
    state, a tuple."""

    __slots__ = ()

    def __new__(cls, masses: np.ndarray, posteriors: tuple[Belief, ...]):
        m = np.asarray(masses, dtype=float)
        if np.any(m < 0.0) or not np.all(np.isfinite(m)):
            raise ValueError("predictive masses must be non-negative and finite")
        if abs(float(m.sum()) - 1.0) > SUM_TOL:
            raise ValueError(f"predictive masses sum to {float(m.sum())!r}, not 1")
        if len(posteriors) != m.size:
            raise ValueError("one posterior belief required per next state")
        m = m.copy()
        m.flags.writeable = False
        return super().__new__(cls, m, posteriors)


def _require_feasible(model: StatisticalMDP, epoch: int, state: int, belief: Belief, action: int):
    _count("epoch", epoch, 0, model.horizon)
    _count("state", state, 0, model.n_states)
    _count("action", action, 0, model.n_actions)
    _check_prior(model, belief)
    if action not in model.feasible[epoch][state]:
        raise InfeasibleActionError(
            f"action {model.actions[action]} is not feasible at epoch {epoch} "
            f"in state {model.states[state]}"
        )


def _posterior(likelihood: np.ndarray, belief: Belief) -> Belief:
    """Bayes' rule: weights proportional to ``likelihood * belief``, or
    ``belief`` unchanged when that has zero mass."""
    w = likelihood * belief.weights
    total = float(w.sum())
    return Belief(w / total) if total > 0.0 else belief


def initial_posterior(model: StatisticalMDP, prior: Belief, state: int) -> Belief:
    """Belief after observing the initial state: weights proportional to
    ``initial_kernel[theta](state) * prior(theta)``.

    Returns the prior unchanged when the observation has zero mass under
    every parameter in the prior's support.
    """
    _check_prior(model, prior)
    return _posterior(model.initial_kernel[:, _count("state", state, 0, model.n_states)], prior)


def update_posterior(
    model: StatisticalMDP,
    epoch: int,
    state: int,
    belief: Belief,
    action: int,
    next_state: int,
) -> Belief:
    """Posterior after taking ``action`` in ``state`` at ``epoch`` and
    observing ``next_state``; zero-mass observations leave the belief
    unchanged."""
    _require_feasible(model, epoch, state, belief, action)
    next_state = _count("next_state", next_state, 0, model.n_states)
    return _posterior(model.transition[epoch, :, state, action, next_state], belief)


def predictive(
    model: StatisticalMDP, epoch: int, state: int, belief: Belief, action: int
) -> PredictiveDistribution:
    """Distribution of the next state under the belief mixture, paired with
    the posterior reached at each next state.

    mass(x') = sum_theta belief(theta) * q[theta](x, a, x').
    """
    _require_feasible(model, epoch, state, belief, action)
    rows = model.transition[epoch, :, state, action, :]
    masses = belief.weights @ rows
    total = float(masses.sum())
    _check_masses(np.array([total]))
    if abs(total - 1.0) > SUM_TOL:
        masses = masses / total
    return PredictiveDistribution(masses, tuple(_posterior(column, belief) for column in rows.T))
