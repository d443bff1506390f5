"""The contract of the value and record types that are not dataclasses:
construction by position and keyword with their defaults, frozen fields,
equality, hashing and ``repr``, as they were as dataclasses; and
``dataclasses.replace`` on the two types that stay dataclasses."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from ambmdp import cli, seqtest
from ambmdp.ambiguity import SaddleCertificate, certify_saddle, solve
from ambmdp.bayes import ReachableBeliefTree, TreeEpoch, ValueSolution, build_tree, solve_bayes
from ambmdp.model import Belief, ParameterSet
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
        "state", "pair_node", "pair_action", "child", "kernel", "stage",
        "first_pair", "pair_row", "live",
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
    parts = (tree.model, tree.prior, tree.dag, tree.epochs, tree.offsets)
    names = ("model", "prior", "dag", "epochs", "offsets")
    for view in (ReachableBeliefTree(*parts), ReachableBeliefTree(**dict(zip(names, parts)))):
        assert all(a is b for a, b in zip(_fields(view, names), parts))
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


def test_replace_copies_the_two_dataclasses(bench_model):
    model = dataclasses.replace(bench_model)
    build_tree(model, seqtest.prior_belief(0.3))
    assert model.belief_dag is not None
    fresh = dataclasses.replace(model)
    assert fresh.belief_dag is None  # the cached DAG stays with its model
    assert fresh.params is model.params
    np.testing.assert_array_equal(fresh.transition, model.transition)
    result = solve(model, "avar", seqtest.prior_belief(0.1), 0.5)
    moved = dataclasses.replace(result, value=result.value + 1.0)
    assert moved.value == result.value + 1.0 and moved.policy is result.policy
