"""The input contract: each public entry point refuses a bad argument with a
ValueError that names it, or with the named limit error, never with a
TypeError, an IndexError, a numeric warning or a NaN result.  Each rule
has one home: the risk level in ``risk._check_gamma``, counts and indices
in ``model._count``, real numbers in ``model._real`` and
``model._float_array``, labels in ``model._as_labels``, the predictive
mass in ``model._check_masses``, the prior size in ``model._check_prior``,
the policy fit in ``bayes._fitted_pairs``, the seqtest fields in
``seqtest.FIELD_RULES`` and Bayes' rule in ``belief._posterior``."""

import ast
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ambmdp import seqtest
from ambmdp.ambiguity import check_gamma, solve, solve_avar, solve_entropic
from ambmdp.bayes import build_tree, solve_bayes
from ambmdp.belief import initial_posterior, predictive, update_posterior
from ambmdp.cli import main, parse_config
from ambmdp.errors import ConfigError, TrajectoryLimitError, TreeSizeLimitError
from ambmdp.model import Belief, ParameterSet, StatisticalMDP
from ambmdp.oracle import enumerate_cost, mc_estimate
from ambmdp.risk import avar_quantile, entropic_risk, relative_entropy

try:
    import resource
except ImportError:  # not on every platform
    resource = None

SRC = Path(__file__).resolve().parents[1] / "src" / "ambmdp"
PROFILE = np.array([1.0, 3.0])
BASE = Belief(np.array([0.4, 0.6]))


def seqtest_model():
    return seqtest.build_model(seqtest.SeqTestConfig(horizon=1))


def model_of_horizon(horizon):
    """A one-state, one-action, one-parameter model of two epochs, built with
    ``horizon`` as given."""
    return StatisticalMDP(
        horizon=horizon,
        states=("s0",),
        actions=("a0",),
        params=ParameterSet(("t0",)),
        feasible=(((0,),),) * 2,
        initial_kernel=np.ones((1, 1)),
        transition=np.ones((2, 1, 1, 1, 1)),
        stage_cost=np.ones((2, 1, 1, 1)),
        terminal_cost=np.zeros((1, 1)),
    )


def labelled_model(states=("s0",), actions=("a0",), **fields):
    """A one-parameter model of one epoch, its arrays shaped by the number
    of ``states`` and ``actions`` (a bare string counts its characters),
    with ``fields`` in place of the defaults."""
    e, a = len(states), len(actions)
    return StatisticalMDP(**{
        "horizon": 1,
        "states": states,
        "actions": actions,
        "params": ParameterSet(("t0",)),
        "feasible": np.ones((1, e, a), dtype=bool),
        "initial_kernel": np.full((1, e), 1.0 / e),
        "transition": np.full((1, 1, e, a, e), 1.0 / e),
        "stage_cost": np.zeros((1, 1, e, a)),
        "terminal_cost": np.zeros((1, e)),
        **fields,
    })


@pytest.fixture(scope="module")
def solved():
    model = seqtest_model()
    return model, solve_bayes(model, seqtest.prior_belief(0.5)).policy


class TestDefectsOfTheDuplicatedRules:
    """Each call once gave a NaN, a result at a wrong argument, or an error
    from inside the function that did not name the argument."""

    @pytest.mark.parametrize(
        "gamma", [math.nan, math.inf, np.True_], ids=("nan", "inf", "np-true"))
    def test_entropic_risk_refuses_gamma(self, gamma):
        with pytest.raises(ValueError, match="^entropic mode requires "):
            entropic_risk(PROFILE, BASE, gamma)

    def test_solve_refuses_a_bool_gamma(self, bench_model):
        # it solved at gamma = 1
        with pytest.raises(ValueError, match="^entropic mode requires gamma > 0, got True"):
            solve(bench_model, "entropic", seqtest.prior_belief(0.3), True)

    @pytest.mark.parametrize("theta", [True, 1.0], ids=("true", "float"))
    def test_enumerate_cost_refuses_theta(self, solved, theta):
        # it raised IndexError
        model, policy = solved
        with pytest.raises(ValueError, match="^parameter index must be a non-negative integer"):
            enumerate_cost(model, theta, policy)

    @pytest.mark.parametrize("samples", [True, 2.5], ids=("true", "float"))
    def test_mc_estimate_refuses_samples(self, solved, samples):
        # True ran one sample, and 2.5 raised TypeError
        model, policy = solved
        with pytest.raises(ValueError, match="^samples must be a positive integer"):
            mc_estimate(model, 0, policy, samples=samples, seed=0)

    def test_mc_estimate_names_a_negative_seed(self, solved):
        model, policy = solved
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            mc_estimate(model, 0, policy, samples=3, seed=-1)

    def test_build_tree_refuses_a_fractional_node_cap(self):
        with pytest.raises(ValueError, match="^node_cap must be a positive integer, got 2.5$"):
            build_tree(seqtest_model(), Belief.uniform(2), node_cap=2.5)

    @pytest.mark.parametrize("horizon", [1.5, True], ids=("float", "true"))
    def test_statistical_mdp_names_the_horizon(self, horizon):
        # 1.5 was reported as a wrong array shape, and True built a model
        with pytest.raises(ValueError, match="^horizon must be a non-negative integer"):
            model_of_horizon(horizon)

    @pytest.mark.parametrize("index", [5, True], ids=("out-of-range", "true"))
    def test_point_mass_refuses_index(self, index):
        # 5 raised IndexError, and True weighed every entry
        with pytest.raises(ValueError, match="^index must be a non-negative integer below 2"):
            Belief.point_mass(2, index)


    @pytest.mark.parametrize("name, call", [
        ("state", lambda m, b: initial_posterior(m, b, -1)),
        ("state", lambda m, b: update_posterior(m, 0, 4, b, 2, 1)),
        ("action", lambda m, b: update_posterior(m, 0, 0, b, 3, 1)),
        ("next_state", lambda m, b: update_posterior(m, 0, 0, b, 2, -1)),
        ("action", lambda m, b: predictive(m, 0, 0, b, -1)),
    ], ids=("initial-negative", "update-state", "update-action", "update-next", "predictive"))
    def test_belief_updates_refuse_an_index_outside_the_model(self, name, call):
        # an index past the end raised IndexError, and a negative one read
        # the last entry and returned a wrong posterior
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer below"):
            call(seqtest_model(), seqtest.prior_belief(0.3))

    @pytest.mark.parametrize("call", [
        lambda m, b: update_posterior(m, 0, 0, b, 2, 1),
        lambda m, b: predictive(m, 0, 0, b, 2),
    ], ids=("update", "predictive"))
    def test_belief_updates_refuse_a_prior_of_another_size(self, call):
        # it failed with NumPy's broadcast error
        with pytest.raises(ValueError, match="^prior dimension does not match the parameter set$"):
            call(seqtest_model(), Belief.uniform(3))


#: per real-valued argument, a call taking it; an int beyond float range
#: once raised OverflowError from inside each
REAL_ARGUMENTS = {
    "entropic_risk.gamma": lambda v: entropic_risk(PROFILE, BASE, v),
    "avar_quantile.gamma": lambda v: avar_quantile(PROFILE, BASE, v),
    "solve.entropic.gamma": lambda v: solve(seqtest_model(), "entropic", BASE, v),
    "solve.avar.gamma": lambda v: solve(seqtest_model(), "avar", BASE, v),
    "solve.robust.gamma": lambda v: solve(seqtest_model(), "robust", BASE, v),
    "solve_entropic.gamma": lambda v: solve_entropic(seqtest_model(), BASE, v),
    "solve_avar.gamma": lambda v: solve_avar(seqtest_model(), BASE, v),
    "check_gamma.entropic": lambda v: check_gamma(seqtest_model(), "entropic", v),
    "check_gamma.avar": lambda v: check_gamma(seqtest_model(), "avar", v),
    "avar_worst_prior_interval.gamma": lambda v: seqtest.avar_worst_prior_interval(v, 0.1),
    **{f"SeqTestConfig.{name}": lambda v, name=name: seqtest.SeqTestConfig(**{name: v})
       for name in seqtest.FIELD_RULES},
    "Belief.weights": lambda v: Belief([v, 0.0]),
    "relative_entropy.nu": lambda v: relative_entropy(BASE, [0.5, v]),
    "entropic_risk.profile": lambda v: entropic_risk([v, 2.0], BASE, 1.0),
    "avar_quantile.profile": lambda v: avar_quantile([v, 2.0], BASE, 0.5),
    "StatisticalMDP.stage_cost": lambda v: labelled_model(stage_cost=[[[[v]]]]),
}


@pytest.mark.parametrize("sign", [1, -1], ids=("plus", "minus"))
@pytest.mark.parametrize("entry", sorted(REAL_ARGUMENTS))
def test_an_int_beyond_float_range_is_refused_by_name(entry, sign):
    with pytest.raises(ValueError):
        REAL_ARGUMENTS[entry](sign * 10**400)


class TestLabels:
    """``StatisticalMDP`` reads its state and action labels by the rule that
    ``ParameterSet`` and the config reader read theirs by."""

    def test_a_bare_string_of_states_is_refused(self):
        # it gave the states ('a', 'b')
        with pytest.raises(ValueError, match="^state labels must be a sequence, not the string 'ab'$"):
            labelled_model(states="ab")

    @pytest.mark.parametrize("field", ["states", "actions"])
    def test_repeated_labels_are_refused(self, field):
        # both built a model
        with pytest.raises(ValueError, match=f"^{field[:-1]} labels must be unique$"):
            labelled_model(**{field: ("x", "x")})

    def test_distinct_labels_are_kept_as_strings(self):
        model = labelled_model(states=("s0", 1), actions=["go", "stay"])
        assert (model.states, model.actions) == (("s0", "1"), ("go", "stay"))


class TestPredictiveMass:
    """One rule and one message refuse masses off 1 in the solver and in
    the reference engine."""

    MESSAGE = r"^predictive masses sum to 1\.001\d*; model row sums are off by more than 1e-06$"

    def model(self):
        return labelled_model(states=("s0", "s1"), transition=np.full((1, 1, 2, 1, 2), 0.5005))

    def test_build_tree_and_predictive_refuse_alike(self):
        with pytest.raises(ValueError, match=self.MESSAGE) as built:
            build_tree(self.model(), Belief.uniform(1))
        with pytest.raises(ValueError, match=self.MESSAGE) as predicted:
            predictive(self.model(), 0, 0, Belief.uniform(1), 0)
        assert str(built.value) == str(predicted.value)

    def test_a_nan_total_is_far(self):
        model = labelled_model(states=("s0", "s1"), transition=np.full((1, 1, 2, 1, 2), np.nan))
        with pytest.raises(ValueError, match="^predictive masses sum to nan;"):
            predictive(model, 0, 0, Belief.uniform(1), 0)


class TestHorizonBeyondTheNodeCap:
    """Every epoch of a valid model holds a DAG node, so a config horizon
    beyond ``solver.node_cap`` is refused as the tree guard before any
    table is made (a seqtest horizon of 1e20 once ended in NumPy's
    dimension error, and an inline one ran out of memory)."""

    SEQTEST = "mode = bayes\nmodel.horizon = 100000000000000000000\nprior = 0.5\n"
    INLINE = (Path(__file__).resolve().parents[1] / "configs" / "inline_example.cfg").read_text()

    def test_seqtest(self):
        with pytest.raises(TreeSizeLimitError, match="^reachable belief tree exceeds node cap 10000000$"):
            parse_config(self.SEQTEST)

    def test_inline(self):
        text = self.INLINE.replace("model.horizon = 1\n", "model.horizon = 6\n")
        assert text != self.INLINE
        with pytest.raises(TreeSizeLimitError, match="^reachable belief tree exceeds node cap 5$"):
            parse_config(text + "solver.node_cap = 5\n")
        assert parse_config(text + "solver.node_cap = 6\n").model.horizon == 6

    def test_the_command_exits_two_on_one_line(self, tmp_path, capsys):
        path = tmp_path / "huge.cfg"
        path.write_text(self.SEQTEST)
        assert main(["solve", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "solver guard: reachable belief tree exceeds node cap 10000000\n"

    @pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
    @pytest.mark.parametrize("horizon, message", [
        (10**9, "Unable to allocate "), (10**17, "a transition table of shape "),
    ], ids=("beyond-memory", "beyond-address-space"))
    def test_tables_too_large_for_memory_exit_three_on_one_line(self, tmp_path, horizon, message):
        # within the node cap, the inline tables of 1e9 epochs need about 130 GB
        # and those of 1e17 more bytes than NumPy can index, and each once
        # ended in a traceback; the child's own address-space limit keeps any
        # table from being filled
        text = self.INLINE.replace("model.horizon = 1\n", f"model.horizon = {horizon}\n")
        assert text != self.INLINE
        path = tmp_path / "huge.cfg"
        path.write_text(text + f"solver.node_cap = {10 * horizon}\n")
        limit = 1 << 30
        done = subprocess.run(
            [sys.executable, "-m", "ambmdp.cli", "solve", "--config", str(path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith(f"out of memory: {message}")
        assert done.stderr.count("\n") == 1 and done.stdout == ""


class TestOneHomePerRule:
    def test_each_message_is_written_once(self):
        text = "".join(path.read_text() for path in sorted(SRC.glob("*.py")))
        for message in (
            "prior dimension does not match the parameter set",
            "policy was built for a different model",
            "strictly inside (0, 1)",
            "model row sums are off by more than",
            "labels must be unique",
            "labels must be a sequence, not the string",
            "numbers.Real",
        ):
            assert text.count(message) == 1, message

    def test_only_model_reads_real_numbers(self):
        for path in SRC.glob("*.py"):
            assert ("import numbers" in path.read_text()) == (path.name == "model.py"), path.name

    def test_belief_forms_a_posterior_in_one_function(self):
        tree = ast.parse((SRC / "belief.py").read_text())
        makers = {function.name for function in ast.walk(tree)
                  if isinstance(function, ast.FunctionDef)
                  for node in ast.walk(function)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Belief"}
        assert makers == {"_posterior"}

    def test_the_gamma_messages_live_in_the_rule(self):
        for path in SRC.glob("*.py"):
            if path.name != "risk.py":
                assert "requires gamma" not in path.read_text(), path.name

    def test_the_config_reader_states_no_seqtest_range(self):
        text = (SRC / "cli.py").read_text()
        assert "DEFAULT_CONFIG" not in text
        assert "(0, 1)" not in text and "v >= 0" not in text
        assert "SUM_TOL" not in (SRC / "bayes.py").read_text()

    @pytest.mark.parametrize("name", ["observation_cost", "error_cost", "p_low", "p_high"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, 1.0])
    def test_seqtest_fields_read_alike_from_code_and_config(self, name, value):
        try:
            seqtest.SeqTestConfig(**{name: value})
        except ValueError as exc:
            expected = f"config error: line 2: model.{name}: {str(exc).removeprefix(name + ' ')}"
        else:
            expected = None
        try:
            parse_config(f"mode = bayes\nmodel.{name} = {value}\nprior = 0.5\n")
        except ConfigError as exc:
            assert f"config error: {exc}" == expected
        else:
            assert expected is None

    def test_unset_seqtest_keys_keep_the_defaults(self):
        model = parse_config("mode = bayes\nprior = 0.5\n").model
        default = seqtest.build_model(seqtest.DEFAULT_CONFIG)
        assert model.horizon == default.horizon
        assert np.array_equal(model.transition, default.transition)
        assert np.array_equal(model.stage_cost, default.stage_cost)


#: one value of each kind an argument can be given
VALUES = (0, 0.0, -0.0, 5e-324, 1e300, -1e300, math.nan, math.inf, -math.inf,
          True, np.True_, "1", 2.5, np.int64(2))


def _entry_points():
    """Per public entry point and argument, a call taking the argument."""
    model = seqtest_model()
    prior = seqtest.prior_belief(0.3)
    policy = solve_bayes(model, seqtest.prior_belief(0.5)).policy
    other = seqtest_model()
    return {
        "entropic_risk.gamma": lambda v: entropic_risk(PROFILE, BASE, v),
        "avar_quantile.gamma": lambda v: avar_quantile(PROFILE, BASE, v),
        "solve.entropic.gamma": lambda v: solve(model, "entropic", prior, v).value,
        "solve.avar.gamma": lambda v: solve(model, "avar", prior, v).value,
        "solve.robust.gamma": lambda v: solve(model, "robust", prior, v).value,
        "avar_worst_prior_interval.gamma": lambda v: seqtest.avar_worst_prior_interval(v, 0.1),
        "enumerate_cost.theta": lambda v: enumerate_cost(model, v, policy)[0],
        "enumerate_cost.trajectory_cap": lambda v: enumerate_cost(model, 0, policy, v)[0],
        "mc_estimate.theta": lambda v: mc_estimate(model, v, policy, 3, 0),
        "mc_estimate.samples": lambda v: mc_estimate(model, 0, policy, v, 0),
        "mc_estimate.seed": lambda v: mc_estimate(model, 0, policy, 3, v),
        "build_tree.node_cap": lambda v: len(build_tree(other, Belief.uniform(2), v)),
        "StatisticalMDP.horizon": lambda v: model_of_horizon(v).horizon,
        "SeqTestConfig.horizon": lambda v: seqtest.SeqTestConfig(horizon=v).horizon,
        "Belief.point_mass.index": lambda v: Belief.point_mass(2, v).weights,
        "initial_posterior.state": lambda v: initial_posterior(model, prior, v).weights,
        "update_posterior.epoch": lambda v: update_posterior(model, v, 0, prior, 2, 1).weights,
        "update_posterior.state": lambda v: update_posterior(model, 0, v, prior, 2, 1).weights,
        "update_posterior.action": lambda v: update_posterior(model, 0, 0, prior, v, 1).weights,
        "update_posterior.next_state":
            lambda v: update_posterior(model, 0, 0, prior, 2, v).weights,
        "predictive.epoch": lambda v: predictive(model, v, 0, prior, 2).masses,
        "predictive.state": lambda v: predictive(model, 0, v, prior, 2).masses,
        "predictive.action": lambda v: predictive(model, 0, 0, prior, v).masses,
    }


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize(
    "entry, value", [pytest.param(entry, value, id=f"{entry}-{type(value).__name__}-{value!r}")
                     for entry, value in itertools.product(sorted(ENTRY_POINTS), VALUES)])
def test_every_argument_gives_a_finite_result_or_a_named_error(entry, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            result = ENTRY_POINTS[entry](value)
        except (ValueError, TreeSizeLimitError, TrajectoryLimitError):
            return
    assert np.all(np.isfinite(result)), (entry, value, result)


@pytest.mark.parametrize("sign", [1, -1], ids=("plus", "minus"))
@pytest.mark.parametrize("entry", ["mc_estimate.theta", "mc_estimate.samples", "mc_estimate.seed"])
def test_an_int_beyond_64_bits_gives_a_finite_estimate_or_a_named_error(entry, sign):
    # a samples count beyond 64 bits once raised OverflowError from NumPy's seed spawning
    name = entry.split(".")[1]
    try:
        result = ENTRY_POINTS[entry](sign * 10**400)
    except ValueError as exc:
        assert str(exc).startswith("parameter index" if name == "theta" else name), exc
        return
    assert entry == "mc_estimate.seed" and sign == 1  # any non-negative seed is read
    assert np.all(np.isfinite(result))
