"""The contract of the value and record types, none of them a dataclass
or a ``typing.NamedTuple``: construction by position and keyword with
their defaults, frozen fields, equality, hashing and ``repr``, as they
were as dataclasses; and ``_replace``, which copies a model through its
constructor, checks and all, and a record field by field."""

import copy
import pickle
from pathlib import Path

import numpy as np
import pytest

from ambmdp import cli, seqtest
from ambmdp.ambiguity import SaddleCertificate, certify_saddle, solve
from ambmdp.bayes import ReachableBeliefTree, TreeEpoch, ValueSolution, build_tree, solve_bayes
from ambmdp.belief import PredictiveDistribution, predictive
from ambmdp.model import Belief, ParameterSet, StatisticalMDP
from ambmdp.oracle import TrajectoryRecord

SEQTEST_FIELDS = ("horizon", "observation_cost", "error_cost", "p_low", "p_high")


def _fields(value, names):
    return tuple(getattr(value, name) for name in names)


def test_named_tuples_construct_by_position_and_keyword(bench_model):
    tree = build_tree(bench_model, seqtest.prior_belief(0.3))
    epoch = tree.epochs[0]
    solution = solve_bayes(bench_model, seqtest.prior_belief(0.3))
    config = cli.parse_config(
        "mode = entropic\nmodel.name = seqtest\nprior = 0.1\nsolver.gamma = 0.1\n"
    )
    result = solve(bench_model, "entropic", seqtest.prior_belief(0.1), 0.1)
    certificate = certify_saddle(bench_model, result)
    record = TrajectoryRecord(("start", "continue"), 0.5, 1.0)
    for value in (epoch, solution, config, certificate, record):
        cls = type(value)
        by_keyword = cls(**dict(zip(cls._fields, value)))
        assert all(a is b for a, b in zip(cls(*value), value))
        assert all(a is b for a, b in zip(by_keyword, value))
    assert TreeEpoch._fields == (
        "state", "pair_node", "child", "pair_cell", "first_pair", "live",
    )
    assert ValueSolution._fields == ("tree", "value", "policy", "costs")
    assert TrajectoryRecord._fields == ("sequence", "probability", "total_cost")
    assert SaddleCertificate._fields == (
        "mu_side_ok", "mu_side_violation", "pi_side_ok", "pi_side_error", "gap",
        "grid_points", "tol",
    )
    assert cli.RunConfig._fields == (
        "mode", "model", "prior", "gamma", "node_cap", "trajectory_cap", "gamma_sweep",
        "prior_sweep", "samples", "seed", "theta", "out_path",
    )


def test_slotted_types_construct_by_position_and_keyword(bench_model):
    weights = np.array([0.25, 0.75])
    assert Belief(weights) == Belief(weights=weights)
    assert ParameterSet(("a", "b")).labels == ParameterSet(labels=["a", "b"]).labels == ("a", "b")
    assert _fields(seqtest.SeqTestConfig(), SEQTEST_FIELDS) == (1, 1.0, 10.0, 1.0 / 3.0, 2.0 / 3.0)
    assert seqtest.SeqTestConfig(2, 0.5, 4.0, 0.25, 0.75) == seqtest.SeqTestConfig(
        horizon=2, observation_cost=0.5, error_cost=4.0, p_low=0.25, p_high=0.75
    )
    tree = build_tree(bench_model, seqtest.prior_belief(0.3))
    parts = (tree.model, tree.prior, tree.dag)
    names = ("model", "prior", "dag")
    for view in (ReachableBeliefTree(*parts), ReachableBeliefTree(**dict(zip(names, parts)))):
        assert all(a is b for a, b in zip(_fields(view, names), parts))
        # the epochs and offsets are the DAG's own
        assert view.epochs is tree.dag.epochs and view.offsets is tree.dag.offsets
        np.testing.assert_array_equal(view.belief, tree.belief)


def test_frozen_types_refuse_assignment(bench_model):
    frozen = [
        (Belief([0.5, 0.5]), "weights"),
        (ParameterSet(("a",)), "labels"),
        (seqtest.SeqTestConfig(), "horizon"),
        (build_tree(bench_model, seqtest.prior_belief(0.3)).epochs[0], "state"),
        (TrajectoryRecord(("s",), 1.0, 0.0), "probability"),
        (cli.parse_config("mode = bayes\nmodel.name = seqtest\nprior = 0.5\n"), "mode"),
    ]
    for value, name in frozen:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before


def test_equality_and_hashing_go_by_field_values():
    cases = [
        (
            ParameterSet(("a", "b")), ParameterSet(["a", "b"]), ParameterSet(("b", "a")),
            ("labels",),
        ),
        (
            seqtest.SeqTestConfig(3), seqtest.SeqTestConfig(horizon=3), seqtest.SeqTestConfig(4),
            SEQTEST_FIELDS,
        ),
        (
            TrajectoryRecord(("s", "a"), 0.5, 2.0),
            TrajectoryRecord(sequence=("s", "a"), probability=0.5, total_cost=2.0),
            TrajectoryRecord(("s", "a"), 0.5, 3.0),
            ("sequence", "probability", "total_cost"),
        ),
    ]
    for value, same, other, names in cases:
        assert value == same and not value != same
        assert value != other
        # a frozen dataclass hashes the tuple of its fields
        assert hash(value) == hash(same) == hash(_fields(value, names))
    assert ParameterSet(("a",)) != ("a",)
    assert seqtest.SeqTestConfig() != object()
    assert Belief([0.5, 0.5]) == Belief(np.array([0.5, 0.5]))
    with pytest.raises(TypeError):
        hash(Belief([0.5, 0.5]))


def test_models_compare_by_value():
    # an array field compares by value; a model that raised on == before
    inline = (Path(__file__).resolve().parents[1] / "configs" / "inline_example.cfg").read_text()
    for build in (lambda: seqtest.build_model(seqtest.SeqTestConfig(horizon=1)),
                  lambda: seqtest.build_model(seqtest.SeqTestConfig(horizon=4)),
                  lambda: cli.parse_config(inline).model):
        model, again = build(), build()
        twins = (again, model._replace(), copy.deepcopy(model), pickle.loads(pickle.dumps(model)))
        for twin in twins:
            assert twin is not model and model == twin and twin == model and not model != twin
        for name in ("initial_kernel", "transition", "stage_cost", "terminal_cost"):
            table = getattr(model, name).copy()
            table.flat[-1] += 1.0
            changed = model._replace(**{name: table})
            assert model != changed and changed != again and not model == changed
        # a value equals itself, NaN entries and all, but a copy holding NaN does not
        unset = model._replace(stage_cost=np.full_like(model.stage_cost, np.nan))
        assert unset == unset and unset != model and unset != copy.deepcopy(unset)
        with pytest.raises(TypeError, match="unhashable"):
            hash(model)


def test_repr_is_unchanged():
    assert repr(Belief([0.25, 0.75])) == "Belief([0.25, 0.75])"
    assert repr(ParameterSet(("a", "b"))) == "ParameterSet(labels=('a', 'b'))"
    assert repr(seqtest.SeqTestConfig(2)) == (
        "SeqTestConfig(horizon=2, observation_cost=1.0, error_cost=10.0, "
        "p_low=0.3333333333333333, p_high=0.6666666666666666)"
    )


def test_slotted_types_copy_and_pickle(bench_model):
    for value in (Belief([0.25, 0.75]), ParameterSet(("a", "b")), seqtest.SeqTestConfig(2)):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value
    twin = copy.deepcopy(bench_model)
    assert twin.params == bench_model.params and twin.params is not bench_model.params


def tiny_model(stage=1.0):
    """A one-state, one-action, one-parameter model of one epoch: every
    array holds one entry, so two models compare by value."""
    return StatisticalMDP(
        horizon=1, states=("s",), actions=("a",), params=ParameterSet(("t",)),
        feasible=(((0,),),), initial_kernel=[[1.0]], transition=[[[[[1.0]]]]],
        stage_cost=[[[[stage]]]], terminal_cost=[[0.0]],
    )


def test_model_replace_copies_without_the_cached_dag(bench_model):
    model = bench_model._replace()
    build_tree(model, seqtest.prior_belief(0.3))
    assert model.belief_dag is not None
    fresh = model._replace()
    assert fresh.belief_dag is None  # the cached DAG stays with its model
    assert fresh.params is model.params
    assert fresh._values()[:5] == model._values()[:5]  # the labels and feasible sets
    for name in StatisticalMDP._fields[5:]:
        assert getattr(fresh, name).tobytes() == getattr(model, name).tobytes()
    assert fresh.feasible_mask.tobytes() == model.feasible_mask.tobytes()
    assert fresh.cost_bounds == model.cost_bounds


def test_model_replace_checks_a_changed_field_again(bench_model):
    with pytest.raises(ValueError, match="^horizon must be a non-negative integer, got -1$"):
        bench_model._replace(horizon=-1)
    with pytest.raises(ValueError, match="^transition must have shape"):
        bench_model._replace(transition=bench_model.transition[:, :1])
    with pytest.raises(ValueError, match="^state labels must be unique$"):
        bench_model._replace(states=("s",) * bench_model.n_states)
    with pytest.raises(TypeError):
        bench_model._replace(bogus=1)
    moved = bench_model._replace(stage_cost=bench_model.stage_cost + 1.0)
    assert not moved.stage_cost.flags.writeable
    assert moved.cost_bounds[0] > bench_model.cost_bounds[0]


def test_model_equality_hash_and_repr_leave_out_the_cached_dag(bench_model):
    model, twin = tiny_model(), tiny_model()
    build_tree(model, Belief.uniform(1))
    assert model.belief_dag is not None and twin.belief_dag is None
    assert model == twin and not model != twin
    assert model != tiny_model(stage=2.0)
    assert model != object()
    with pytest.raises(TypeError):  # the arrays are unhashable, as a frozen dataclass's are
        hash(model)
    assert repr(model) == repr(twin) == "StatisticalMDP(" + ", ".join(
        f"{name}={getattr(model, name)!r}" for name in StatisticalMDP._fields) + ")"
    with pytest.raises(AttributeError):
        model.horizon = 2
    with pytest.raises(AttributeError):
        model.belief_dag = None


def test_model_copy_and_pickle_rebuild_without_the_cached_dag():
    model = tiny_model()
    build_tree(model, Belief.uniform(1))
    for twin in (copy.copy(model), copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert type(twin) is StatisticalMDP and twin == model
        assert twin.belief_dag is None
        assert not twin.transition.flags.writeable
        assert twin.feasible_mask.tobytes() == model.feasible_mask.tobytes()


def test_result_replace_changes_one_field(bench_model):
    model = bench_model._replace()
    result = solve(model, "avar", seqtest.prior_belief(0.1), 0.5)
    moved = result._replace(value=result.value + 1.0)
    assert type(moved) is type(result)
    assert moved.value == result.value + 1.0 and moved.policy is result.policy
    assert all(a is b for name, a, b in zip(result._fields, moved, result) if name != "value")
    with pytest.raises(ValueError):
        result._replace(bogus=1)


def test_result_equality_hash_repr_copy_and_pickle(bench_model):
    result = solve(bench_model, "entropic", seqtest.prior_belief(0.1), 0.1)
    assert result == result and not result != result
    assert result == copy.copy(result)  # the same field values
    with pytest.raises(TypeError):  # a Belief field is unhashable
        hash(result)
    assert repr(result) == "SaddleResult(" + ", ".join(
        f"{name}={getattr(result, name)!r}" for name in result._fields) + ")"
    for twin in (copy.deepcopy(result), pickle.loads(pickle.dumps(result))):
        assert type(twin) is type(result) and twin._fields == result._fields
        assert (twin.mode, twin.value, twin.gap, twin.gamma, twin.support) == (
            result.mode, result.value, result.gap, result.gamma, result.support)
        assert twin.worst_prior == result.worst_prior
        assert twin.cost_profile.tobytes() == result.cost_profile.tobytes()
        np.testing.assert_array_equal(twin.policy.actions, result.policy.actions)


def test_predictive_distribution_is_a_checked_record(bench_model):
    dist = predictive(bench_model, 0, 0, seqtest.prior_belief(0.3), seqtest.A_CONTINUE)
    assert PredictiveDistribution._fields == ("masses", "posteriors")
    masses, posteriors = dist
    assert masses is dist.masses and not masses.flags.writeable
    assert PredictiveDistribution(masses=masses, posteriors=posteriors).posteriors is posteriors
    with pytest.raises(AttributeError):
        dist.masses = None
    with pytest.raises(ValueError, match="one posterior belief required per next state"):
        PredictiveDistribution(masses, posteriors[:-1])
