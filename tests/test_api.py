import subprocess
import sys

import ambmdp

PUBLIC = [
    "AmbiguityMDPError", "Belief", "ConfigError", "DeterministicPolicy",
    "InfeasibleActionError", "ParameterSet", "PolicyTreeMismatchError",
    "ReachableBeliefTree", "SaddleCertificate", "SaddleResult", "StatisticalMDP",
    "TrajectoryLimitError", "TrajectoryRecord", "TreeEpoch", "TreeSizeLimitError",
    "ValueSolution", "avar_quantile", "bayes_cost", "build_tree", "certify_saddle",
    "entropic_risk", "enumerate_cost",
    "mc_estimate", "policy_cost_profile", "relative_entropy",
    "solve", "solve_avar", "solve_bayes", "solve_entropic", "validate",
]


def test_public_names_are_pinned_and_resolve():
    assert ambmdp.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(ambmdp, name) is not None


def test_package_import_leaves_the_one_node_oracle_unloaded():
    # ambmdp.belief is a test oracle: no solver path imports it
    code = "import sys, ambmdp; sys.exit('ambmdp.belief' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True)
