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

import numpy as np

from .model import Belief, ParameterSet, StatisticalMDP, _count, _Frozen, _real
from .risk import _check_gamma

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


_COST, _RATE = (lambda v: v >= 0.0, ">= 0"), (lambda v: 0.0 < v < 1.0, "strictly inside (0, 1)")
FIELD_RULES = dict(observation_cost=_COST, error_cost=_COST, p_low=_RATE, p_high=_RATE)


def _field_fault(name: str, value) -> str | None:
    """Why ``value`` breaks the (test, range) rule of the real field ``name``, or None."""
    test, what = FIELD_RULES[name]
    if (real := _real(value)) is None:
        return f"must be a real number, got {value!r}"
    if not math.isfinite(real):
        return f"must be finite, got {value}"
    return None if test(value) else f"must be {what}, got {value}"


class SeqTestConfig(_Frozen):
    """Example configuration.

    ``horizon`` counts observation opportunities; the built model has one
    extra epoch during which only declarations are feasible, so a decision
    is always forced.
    """

    __slots__ = _fields = ("horizon", *FIELD_RULES)

    def __init__(self, horizon: int = 1, observation_cost: float = 1.0,
                 error_cost: float = 10.0, p_low: float = 1.0 / 3.0, p_high: float = 2.0 / 3.0):
        object.__setattr__(self, "horizon", _count("horizon", horizon))
        for name, value in zip(FIELD_RULES, (observation_cost, error_cost, p_low, p_high)):
            if fault := _field_fault(name, value):
                raise ValueError(f"{name} {fault}")
            object.__setattr__(self, name, value)


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
    success = np.array((config.p_low, config.p_high))

    transition = np.zeros((n_e, n_a, n_e, n_k))  # built as (x, a, x', k), moved below
    transition[:, (A_DECLARE_1, A_DECLARE_2), X_STOPPED] = 1.0
    transition[:, A_CONTINUE, STATES.index("obs1")] = success
    transition[:, A_CONTINUE, STATES.index("obs0")] = 1.0 - success
    transition[X_STOPPED] = 0.0
    transition[X_STOPPED, :, X_STOPPED] = 1.0
    per_epoch = np.transpose(transition, (3, 0, 1, 2))

    stage = np.zeros((n_k, n_e, n_a))
    stage[:, :, A_CONTINUE] = config.observation_cost
    stage[1, :, A_DECLARE_1] = config.error_cost  # theta2 true, theta1 declared
    stage[0, :, A_DECLARE_2] = config.error_cost  # theta1 true, theta2 declared
    stage[:, X_STOPPED] = 0.0

    # the last epoch forbids continue, but stopped allows only continue, its no-op
    feasible = np.ones((n_epochs, n_e, n_a), dtype=bool)
    feasible[-1, :, A_CONTINUE] = False
    feasible[:, X_STOPPED] = np.arange(n_a) == A_CONTINUE

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


def avar_worst_prior_interval(gamma: float, mu0: float) -> tuple[float, float]:
    """Maximizer set of the optimal value over the AVaR prior polytope for
    the default configuration, as an interval (a point when unique).

    Three regimes in gamma for mu0 <= 1/2: the density cap mu0/(1-gamma)
    while it stays below the plateau; the plateau edge up to the cap once
    the cap enters the plateau; the full plateau once the cap passes it.
    """
    _check_gamma("avar", gamma)
    if not 0.0 < mu0 <= 0.5:
        raise ValueError(f"mu0 must lie in (0, 0.5], got {mu0}")
    cap = mu0 / (1.0 - gamma)
    if gamma <= 1.0 - mu0 / CONTINUE_LO:
        return cap, cap
    if gamma < 1.0 - mu0 / CONTINUE_HI:
        return CONTINUE_LO, cap
    return CONTINUE_LO, CONTINUE_HI
