"""Finite-horizon Bayesian MDP solver with ambiguity-averse priors.

The package solves statistical Markov decision processes whose kernels and
costs depend on an unknown parameter: exact belief-state dynamic
programming for the inner Bayes problem, and worst-case prior search under
an entropic penalty, an Average-Value-at-Risk density cap, or no penalty
at all (robust mode), each certified by a numerical duality gap.
"""

from .ambiguity import (
    SaddleCertificate,
    SaddleResult,
    certify_saddle,
    solve,
    solve_avar,
    solve_entropic,
)
from .bayes import (
    DeterministicPolicy,
    ReachableBeliefTree,
    TreeEpoch,
    ValueSolution,
    bayes_cost,
    build_tree,
    policy_cost_profile,
    solve_bayes,
)
from .errors import (
    AmbiguityMDPError,
    ConfigError,
    InfeasibleActionError,
    PolicyTreeMismatchError,
    TrajectoryLimitError,
    TreeSizeLimitError,
)
from .model import Belief, ParameterSet, StatisticalMDP, validate
from .oracle import TrajectoryRecord, enumerate_cost, mc_estimate
from .risk import avar_quantile, entropic_risk, relative_entropy

__version__ = "0.1.0"

__all__ = [
    "AmbiguityMDPError",
    "Belief",
    "ConfigError",
    "DeterministicPolicy",
    "InfeasibleActionError",
    "ParameterSet",
    "PolicyTreeMismatchError",
    "ReachableBeliefTree",
    "SaddleCertificate",
    "SaddleResult",
    "StatisticalMDP",
    "TrajectoryLimitError",
    "TrajectoryRecord",
    "TreeEpoch",
    "TreeSizeLimitError",
    "ValueSolution",
    "avar_quantile",
    "bayes_cost",
    "build_tree",
    "certify_saddle",
    "entropic_risk",
    "enumerate_cost",
    "mc_estimate",
    "policy_cost_profile",
    "relative_entropy",
    "solve",
    "solve_avar",
    "solve_bayes",
    "solve_entropic",
    "validate",
]
