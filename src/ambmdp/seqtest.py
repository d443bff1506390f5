"""Sequential hypothesis test between two Bernoulli success rates.

A statistician pays per observation and pays a penalty for declaring the
wrong hypothesis.  The model builder embeds the problem in the generic
finite-horizon solver; the closed forms below are the known reference
solution for the default configuration (observation cost 1, error cost 10,
success rates 1/3 and 2/3) and back the acceptance tests.

With those defaults, the optimal Bayes cost with at least one observation
remaining is piecewise linear in the belief ``mu`` placed on the low-rate
hypothesis: 10*mu up to 13/30, flat at 13/3 over (13/30, 17/30], then
10*(1-mu).  The same function recurs at every horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import Belief, ParameterSet, StatisticalMDP

STATES = ("start", "obs0", "obs1", "stopped")
# declarations sorted below continue: ties at decision boundaries stop
ACTIONS = ("declare_theta1", "declare_theta2", "continue")
PARAMS = ParameterSet(("theta1", "theta2"))

A_DECLARE_1, A_DECLARE_2, A_CONTINUE = 0, 1, 2
X_STOPPED = STATES.index("stopped")

#: belief thresholds of the continue region for the default configuration
CONTINUE_LO = 13.0 / 30.0
CONTINUE_HI = 17.0 / 30.0
#: optimal cost on the plateau between the thresholds
PLATEAU_VALUE = 13.0 / 3.0


@dataclass(frozen=True)
class SeqTestConfig:
    """Example configuration.

    ``horizon`` counts observation opportunities; the built model has one
    extra epoch during which only declarations are feasible, so a decision
    is always forced.
    """

    horizon: int = 1
    observation_cost: float = 1.0
    error_cost: float = 10.0
    p_low: float = 1.0 / 3.0
    p_high: float = 2.0 / 3.0

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be non-negative")
        for name in ("p_low", "p_high"):
            p = getattr(self, name)
            if not 0.0 < p < 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1), got {p}")
        for name in ("observation_cost", "error_cost"):
            c = getattr(self, name)
            if not (math.isfinite(c) and c >= 0.0):
                raise ValueError(f"{name} must be a non-negative real, got {c}")


DEFAULT_CONFIG = SeqTestConfig()


def prior_belief(mu: float) -> Belief:
    """Two-point belief putting weight ``mu`` on theta1."""
    return Belief(np.array([mu, 1.0 - mu]))


def build_model(config: SeqTestConfig = DEFAULT_CONFIG) -> StatisticalMDP:
    """Embed the example as a statistical MDP.

    States: start, the two observation outcomes, and an absorbing stopped
    state whose single no-op action costs nothing.  Declarations cost
    ``error_cost`` exactly when the declared hypothesis is wrong and move
    to stopped; continue costs ``observation_cost`` and moves to obs1 with
    the success rate of the true parameter.  The final epoch forbids
    continue, forcing a declaration; terminal costs are zero.
    """
    n_epochs = config.horizon + 1
    n_e, n_a, n_k = len(STATES), len(ACTIONS), len(PARAMS)
    success = (config.p_low, config.p_high)

    transition = np.zeros((n_e, n_a, n_e, n_k))  # built as (x, a, x', k), moved below
    for x in range(n_e):
        if x == X_STOPPED:
            transition[x, :, X_STOPPED, :] = 1.0
            continue
        for k in range(n_k):
            transition[x, A_DECLARE_1, X_STOPPED, k] = 1.0
            transition[x, A_DECLARE_2, X_STOPPED, k] = 1.0
            transition[x, A_CONTINUE, STATES.index("obs1"), k] = success[k]
            transition[x, A_CONTINUE, STATES.index("obs0"), k] = 1.0 - success[k]
    per_epoch = np.transpose(transition, (3, 0, 1, 2))

    stage = np.zeros((n_k, n_e, n_a))
    for x in range(n_e):
        if x == X_STOPPED:
            continue
        stage[:, x, A_CONTINUE] = config.observation_cost
        stage[1, x, A_DECLARE_1] = config.error_cost  # theta2 true, theta1 declared
        stage[0, x, A_DECLARE_2] = config.error_cost  # theta1 true, theta2 declared

    open_epoch = tuple(
        (A_CONTINUE,) if x == X_STOPPED else (A_DECLARE_1, A_DECLARE_2, A_CONTINUE)
        for x in range(n_e)
    )
    last_epoch = tuple(
        (A_CONTINUE,) if x == X_STOPPED else (A_DECLARE_1, A_DECLARE_2)
        for x in range(n_e)
    )
    feasible = tuple(open_epoch for _ in range(n_epochs - 1)) + (last_epoch,)

    initial = np.zeros((n_k, n_e))
    initial[:, STATES.index("start")] = 1.0

    return StatisticalMDP(
        horizon=n_epochs,
        states=STATES,
        actions=ACTIONS,
        params=PARAMS,
        feasible=feasible,
        initial_kernel=initial,
        transition=np.broadcast_to(per_epoch, (n_epochs,) + per_epoch.shape),
        stage_cost=np.broadcast_to(stage, (n_epochs,) + stage.shape),
        terminal_cost=np.zeros((n_k, n_e)),
    )


def _check_mu(mu: float):
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"belief must lie in [0, 1], got {mu}")


def success_posterior(mu: float, config: SeqTestConfig = DEFAULT_CONFIG) -> float:
    """Belief on theta1 after observing a success; mu/(2-mu) at the default
    rates."""
    _check_mu(mu)
    num = config.p_low * mu
    den = num + config.p_high * (1.0 - mu)
    return num / den if den > 0.0 else mu


def failure_posterior(mu: float, config: SeqTestConfig = DEFAULT_CONFIG) -> float:
    """Belief on theta1 after observing a failure; 2*mu/(1+mu) at the
    default rates."""
    _check_mu(mu)
    num = (1.0 - config.p_low) * mu
    den = num + (1.0 - config.p_high) * (1.0 - mu)
    return num / den if den > 0.0 else mu


def terminal_decision_cost(mu: float) -> float:
    """Expected cost of an immediate forced declaration at belief ``mu``
    under the default configuration: 10 * min(mu, 1 - mu)."""
    _check_mu(mu)
    return 10.0 * min(mu, 1.0 - mu)


def optimal_value(mu: float) -> float:
    """Optimal expected cost at belief ``mu`` when at least one observation
    remains, default configuration.  The same piecewise-linear function is
    optimal for every such horizon."""
    _check_mu(mu)
    if mu <= CONTINUE_LO:
        return 10.0 * mu
    if mu <= CONTINUE_HI:
        return PLATEAU_VALUE
    return 10.0 * (1.0 - mu)


def optimal_first_action(mu: float) -> str:
    """Optimal initial action at belief ``mu``, default configuration:
    continue strictly inside the plateau region, otherwise declare the
    hypothesis with the higher belief.  Boundary beliefs declare."""
    _check_mu(mu)
    if CONTINUE_LO < mu < CONTINUE_HI:
        return ACTIONS[A_CONTINUE]
    if mu <= 0.5:
        return ACTIONS[A_DECLARE_2]
    return ACTIONS[A_DECLARE_1]


def avar_worst_prior_interval(gamma: float, mu0: float) -> tuple[float, float]:
    """Maximizer set of the optimal value over the AVaR prior polytope for
    the default configuration, as an interval (a point when unique).

    Three regimes in gamma for mu0 <= 1/2: the density cap mu0/(1-gamma)
    while it stays below the plateau; the plateau edge up to the cap once
    the cap enters the plateau; the full plateau once the cap passes it.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if not 0.0 < mu0 <= 0.5:
        raise ValueError(f"mu0 must lie in (0, 0.5], got {mu0}")
    cap = mu0 / (1.0 - gamma)
    if gamma <= 1.0 - mu0 / CONTINUE_LO:
        return cap, cap
    if gamma < 1.0 - mu0 / CONTINUE_HI:
        return CONTINUE_LO, cap
    return CONTINUE_LO, CONTINUE_HI


def bellman_sweep(
    values: Callable[[float], float],
    mu: float,
    config: SeqTestConfig = DEFAULT_CONFIG,
) -> float:
    """One dynamic-programming step applied to a scalar value function of
    the belief: the cheaper of declaring now and paying one observation
    plus the predictive mixture of ``values`` at the updated beliefs.

    Implemented from the scalar recursion directly, independently of the
    tree solver, so the two can check each other.
    """
    _check_mu(mu)
    stop = config.error_cost * min(mu, 1.0 - mu)
    p_success = config.p_low * mu + config.p_high * (1.0 - mu)
    continue_value = (
        config.observation_cost
        + p_success * values(success_posterior(mu, config))
        + (1.0 - p_success) * values(failure_posterior(mu, config))
    )
    return min(stop, continue_value)
