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


def test_cli_import_leaves_fractions_decimal_and_csv_unloaded():
    # numpy loads none of them; the CLI imports each where it uses it
    code = (
        "import sys, ambmdp.cli; "
        "sys.exit(sorted({'fractions', 'decimal', 'csv'} & set(sys.modules)) or None)"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_package_import_generates_no_dataclass_or_typed_named_tuple():
    # generating their methods was about half of the package import's time,
    # and importing dataclasses is about 1 ms more
    code = (
        "import sys, typing, ambmdp, ambmdp.cli\n"
        "types = [v for n, m in list(sys.modules.items()) if n.split('.')[0] == 'ambmdp'\n"
        "         for v in vars(m).values() if isinstance(v, type) and v.__module__ == n]\n"
        "assert {'StatisticalMDP', 'SaddleResult', 'RunConfig'} <= {v.__name__ for v in types}\n"
        "found = sorted(v.__qualname__ for v in types if hasattr(v, '__dataclass_fields__')\n"
        "               or typing.NamedTuple in getattr(v, '__orig_bases__', ()))\n"
        "sys.exit(str(found) if found else 'dataclasses' in sys.modules and 'dataclasses loaded')\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
