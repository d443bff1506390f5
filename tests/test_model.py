from pathlib import Path

import numpy as np
import pytest
from helpers import random_belief, random_model
from oracles import loop_feasible

from ambmdp import seqtest
from ambmdp.bayes import build_tree, policy_cost_profile, solve_bayes
from ambmdp.cli import parse_config
from ambmdp.model import Belief, ParameterSet, StatisticalMDP, validate


def two_state_model(row=(0.5, 0.5)):
    params = ParameterSet(("t0", "t1"))
    transition = np.empty((1, 2, 2, 1, 2))
    transition[...] = np.array(row)
    return StatisticalMDP(
        horizon=1,
        states=("s0", "s1"),
        actions=("a0",),
        params=params,
        feasible=(((0,), (0,)),),
        initial_kernel=np.array([[1.0, 0.0], [0.0, 1.0]]),
        transition=transition,
        stage_cost=np.ones((1, 2, 2, 1)),
        terminal_cost=np.zeros((2, 2)),
    )


class TestParameterSet:
    def test_labels_must_be_unique(self):
        with pytest.raises(ValueError, match="unique"):
            ParameterSet(("a", "a"))

    def test_must_be_non_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            ParameterSet(())

    def test_index(self):
        assert ParameterSet(("x", "y")).index("y") == 1

    def test_a_bare_string_is_refused(self):
        # it once gave the labels ('a', 'b')
        with pytest.raises(ValueError, match="not the string 'ab'"):
            ParameterSet("ab")


class TestBelief:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="non-negative"):
            Belief(np.array([-0.1, 1.1]))

    def test_rejects_far_from_simplex(self):
        with pytest.raises(ValueError, match="sum"):
            Belief(np.array([0.7, 0.7]))

    def test_renormalizes_small_drift(self):
        drift = 1e-9
        b = Belief(np.array([0.5 + drift, 0.5]))
        assert b.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_point_mass_and_support(self):
        b = Belief.point_mass(3, 1)
        assert b.support() == (1,)
        assert Belief.uniform(4).support() == (0, 1, 2, 3)

    def test_weights_are_read_only(self):
        b = Belief.uniform(2)
        with pytest.raises(ValueError):
            b.weights[0] = 0.3

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([0.5, np.nan], "belief weights must be finite"),
            ([np.inf, 0.5], "belief weights must be finite"),
            ([-np.inf, 1.0], "belief weights must be finite"),
            ([np.inf, -np.inf], "belief weights must be finite"),
            ([1.0 + 2e-12, -2e-12], "belief weights must be non-negative, got [ 1.e+00 -2.e-12]"),
            ([1.5, -0.5], "belief weights must be non-negative, got [ 1.5 -0.5]"),
            ([0.5, 0.6], "belief weights sum to 1.1, too far from 1"),
            # finite entries whose sum overflows
            ([1e308, 1e308], "belief weights sum to inf, too far from 1"),
        ],
    )
    def test_each_fault_is_named(self, weights, message):
        with np.errstate(over="ignore"), pytest.raises(ValueError) as raised:
            Belief(np.array(weights))
        assert str(raised.value) == message

    def test_tiny_negative_is_clipped_to_zero(self):
        b = Belief(np.array([1.0, -1e-13]))
        assert b.weights.tobytes() == np.array([1.0, 0.0]).tobytes()
        c = Belief(np.array([0.5, 0.5 + 1e-13, -1e-13]))
        assert c.weights.tobytes() == np.array([0.5, 0.5 + 1e-13, 0.0]).tobytes()

    def test_drifted_sum_is_renormalized(self):
        w = np.array([0.5, 0.5 + 1e-9])
        assert Belief(w).weights.tobytes() == (w / float(w.sum())).tobytes()

    def test_valid_weights_are_kept_bit_for_bit(self):
        # a sum within SUM_TOL is not renormalized, and -0.0 stays -0.0
        for w in ([0.5, 0.5 + 5e-13], [1.0, -0.0], [0.25, 0.25, 0.5]):
            b = Belief(np.array(w))
            assert b.weights.tobytes() == np.array(w).tobytes()
            assert not b.weights.flags.writeable


    def test_empty_weights_are_refused(self):
        with pytest.raises(ValueError, match="non-empty vector"):
            Belief(np.array([]))

    def test_compares_unequal_to_other_types(self):
        mu = Belief(np.array([0.5, 0.5]))
        assert mu != [0.5, 0.5] and mu != "Belief([0.5, 0.5])"
        assert mu == Belief(np.array([0.5, 0.5]))


class TestValidate:
    def test_well_formed_model_has_no_diagnostics(self):
        assert validate(two_state_model()) == []

    def test_bad_row_sum_is_located(self):
        model = two_state_model()
        transition = model.transition.copy()
        transition[0, 0, 0, 0] = [0.5, 0.4]
        broken = StatisticalMDP(
            horizon=1,
            states=model.states,
            actions=model.actions,
            params=model.params,
            feasible=model.feasible,
            initial_kernel=model.initial_kernel,
            transition=transition,
            stage_cost=model.stage_cost,
            terminal_cost=model.terminal_cost,
        )
        diags = validate(broken)
        assert len(diags) == 1
        assert "sums to" in diags[0]
        assert "epoch 0" in diags[0] and "theta=t0" in diags[0]
        assert "state s0" in diags[0] and "action a0" in diags[0]

    def test_empty_feasible_set_is_reported(self):
        model = two_state_model()
        broken = StatisticalMDP(
            horizon=1,
            states=model.states,
            actions=model.actions,
            params=model.params,
            feasible=(((), (0,)),),
            initial_kernel=model.initial_kernel,
            transition=model.transition,
            stage_cost=model.stage_cost,
            terminal_cost=model.terminal_cost,
        )
        diags = validate(broken)
        assert len(diags) == 1
        assert "empty feasible" in diags[0] and "state s0" in diags[0]

    def test_non_finite_cost_is_reported(self):
        model = two_state_model()
        stage = model.stage_cost.copy()
        stage[0, 1, 0, 0] = np.nan
        broken = StatisticalMDP(
            horizon=1,
            states=model.states,
            actions=model.actions,
            params=model.params,
            feasible=model.feasible,
            initial_kernel=model.initial_kernel,
            transition=model.transition,
            stage_cost=stage,
            terminal_cost=model.terminal_cost,
        )
        assert any("stage cost" in d and "theta=t1" in d for d in validate(broken))

    def test_every_defect_is_listed_in_order(self):
        # several defects of every kind, some at infeasible pairs (skipped);
        # initial rows first, then by epoch, state, action and parameter,
        # then terminal costs by parameter and state
        nan, inf = np.nan, np.inf
        transition = np.full((2, 3, 3, 2, 3), 1.0 / 3.0)
        transition[0, 0, 0, 0] = [0.5, 0.6, 0.0]
        transition[0, 2, 0, 1] = [inf, 0.0, 0.0]
        transition[0, 1, 1, 0] = [-1.0, 1.0, 1.0]
        transition[0, 1, 2, 0] = [-1.0, 1.0, 1.0]
        transition[0, 1, 2, 1] = [-0.5, 1.0, 0.5]
        transition[1, 0, 1, 1] = [0.2, 0.2, 0.2]
        transition[1, 2, 0, 0] = [nan, 0.5, 0.5]
        stage = np.zeros((2, 3, 3, 2))
        stage[0, 1, 0, 0] = inf
        stage[0, 0, 0, 0] = nan
        stage[1, 2, 1, 0] = -inf
        stage[0, 0, 1, 0] = nan
        terminal = np.zeros((3, 3))
        terminal[0, 2] = nan
        terminal[2, 0] = inf
        terminal[1, 1] = -inf
        model = StatisticalMDP(
            horizon=2,
            states=("s0", "s1", "s2"),
            actions=("a0", "a1"),
            params=ParameterSet(("t0", "t1", "t2")),
            feasible=(((0, 1), (), (1,)), ((0,), (0, 1), ())),
            initial_kernel=np.array([[nan, 0.5, 0.5], [-0.1, 0.6, 0.5], [0.3, 0.3, 0.3]]),
            transition=transition,
            stage_cost=stage,
            terminal_cost=terminal,
        )
        bad_row = "probability row has negative or non-finite entries"
        assert validate(model) == [
            f"{bad_row} (initial kernel, theta=t0)",
            f"{bad_row} (initial kernel, theta=t1)",
            "probability row sums to 0.8999999999999999, not 1 within 1e-12 "
            "(initial kernel, theta=t2)",
            "probability row sums to 1.1, not 1 within 1e-12 "
            "(epoch 0, theta=t0, state s0, action a0)",
            "stage cost is not finite (epoch 0, theta=t0, state s0, action a0)",
            "stage cost is not finite (epoch 0, theta=t1, state s0, action a0)",
            f"{bad_row} (epoch 0, theta=t2, state s0, action a1)",
            "empty feasible action set (epoch 0, state s1)",
            f"{bad_row} (epoch 0, theta=t1, state s2, action a1)",
            f"{bad_row} (epoch 1, theta=t2, state s0, action a0)",
            "stage cost is not finite (epoch 1, theta=t2, state s1, action a0)",
            "probability row sums to 0.6000000000000001, not 1 within 1e-12 "
            "(epoch 1, theta=t0, state s1, action a1)",
            "empty feasible action set (epoch 1, state s2)",
            "terminal cost is not finite (theta=t0, state s2)",
            "terminal cost is not finite (theta=t1, state s1)",
            "terminal cost is not finite (theta=t2, state s0)",
        ]

    def test_random_models_are_valid_and_solvable(self, rng):
        for _ in range(10):
            model = random_model(rng)
            assert validate(model) == []
            prior = random_belief(rng, model.n_params)
            solve_bayes(model, prior)  # must not raise


class TestCostBounds:
    def test_seqtest_brackets_trajectory_extrema(self):
        # true per-trajectory extrema for two observations then a forced
        # declaration: best 0, worst 1 + 1 + 10
        model = seqtest.build_model(seqtest.SeqTestConfig(horizon=2))
        lo, hi = model.cost_bounds
        assert lo <= 0.0 and hi >= 12.0

    def test_zero_cost_model(self):
        model = two_state_model()
        zero = StatisticalMDP(
            horizon=1,
            states=model.states,
            actions=model.actions,
            params=model.params,
            feasible=model.feasible,
            initial_kernel=model.initial_kernel,
            transition=model.transition,
            stage_cost=np.zeros_like(model.stage_cost),
            terminal_cost=np.zeros_like(model.terminal_cost),
        )
        assert zero.cost_bounds == (0.0, 0.0)

    def test_single_epoch_bounds(self):
        # stage costs 2 and 5 for the two actions, terminal cost 1
        params = ParameterSet(("t0",))
        transition = np.full((1, 1, 1, 2, 1), 1.0)
        model = StatisticalMDP(
            horizon=1,
            states=("s0",),
            actions=("a0", "a1"),
            params=params,
            feasible=(((0, 1),),),
            initial_kernel=np.array([[1.0]]),
            transition=transition,
            stage_cost=np.array([[[[2.0, 5.0]]]]),
            terminal_cost=np.array([[1.0]]),
        )
        assert model.cost_bounds == (3.0, 6.0)

    def test_bounds_bracket_every_policy_value(self, rng):
        from helpers import enumerate_policies, policy_count

        for _ in range(5):
            model = random_model(rng, n_states=2, n_actions=2, horizon=2, n_params=2)
            lo, hi = model.cost_bounds
            tree = build_tree(model, random_belief(rng, 2))
            if policy_count(tree) > 64:
                continue
            for policy in enumerate_policies(tree):
                for theta in range(model.n_params):
                    value = policy_cost_profile(model, policy)[theta]
                    assert lo - 1e-9 <= value <= hi + 1e-9


class TestConstruction:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="initial_kernel"):
            StatisticalMDP(
                horizon=1,
                states=("s0",),
                actions=("a0",),
                params=ParameterSet(("t0",)),
                feasible=(((0,),),),
                initial_kernel=np.ones((2, 1)),
                transition=np.ones((1, 1, 1, 1, 1)),
                stage_cost=np.zeros((1, 1, 1, 1)),
                terminal_cost=np.zeros((1, 1)),
            )

    @pytest.mark.parametrize("states, actions", [((), ("a0",)), (("s0",), ())])
    def test_empty_state_or_action_space_is_refused(self, states, actions):
        e, a = len(states), len(actions)
        with pytest.raises(ValueError, match="state and action spaces must be non-empty"):
            StatisticalMDP(
                horizon=1,
                states=states,
                actions=actions,
                params=ParameterSet(("t0",)),
                feasible=((),),
                initial_kernel=np.ones((1, e)),
                transition=np.ones((1, 1, e, a, e)),
                stage_cost=np.zeros((1, 1, e, a)),
                terminal_cost=np.zeros((1, e)),
            )

    def test_zero_horizon_model_is_allowed(self):
        params = ParameterSet(("t0",))
        model = StatisticalMDP(
            horizon=0,
            states=("s0", "s1"),
            actions=("a0",),
            params=params,
            feasible=(),
            initial_kernel=np.array([[0.25, 0.75]]),
            transition=np.zeros((0, 1, 2, 1, 2)),
            stage_cost=np.zeros((0, 1, 2, 1)),
            terminal_cost=np.array([[1.0, 3.0]]),
        )
        assert validate(model) == []
        assert model.cost_bounds == (1.0, 3.0)


def _feasible_cases():
    """(name, model) for every shipped config, seqtest H = 0, 1, 32 and 20
    seeded random models."""
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    cases = [(path.name, parse_config(path.read_text()).model) for path in configs]
    cases += [
        (f"seqtest-H{h}", seqtest.build_model(seqtest.SeqTestConfig(horizon=h)))
        for h in (0, 1, 32)
    ]
    rng = np.random.default_rng(31)
    cases += [(f"random-{i}", random_model(rng, n_actions=int(rng.integers(1, 6))))
              for i in range(20)]
    return cases


FEASIBLE_CASES = _feasible_cases()


class TestFeasibleSets:
    """``feasible`` and ``feasible_mask`` against the set-by-set reference."""

    @staticmethod
    def scrambled(feasible, rng):
        """The sets as lists of mixed int types, each shuffled, with some
        actions repeated."""
        out = []
        for per_state in feasible:
            row = []
            for acts in per_state:
                acts = list(acts) + list(rng.choice(acts, size=int(rng.integers(0, 3))))
                rng.shuffle(acts)
                row.append([np.int64(a) if rng.random() < 0.5 else int(a) for a in acts])
            out.append(row)
        return out

    @pytest.mark.parametrize("name, model", FEASIBLE_CASES, ids=[n for n, _ in FEASIBLE_CASES])
    def test_sets_and_mask_match_the_reference(self, name, model):
        shape = (model.horizon, model.n_states, model.n_actions)
        sets, mask = loop_feasible(model.feasible, *shape)
        assert model.feasible == sets
        assert model.feasible_mask.tobytes() == mask.tobytes()
        assert model.feasible_mask.shape == shape and not model.feasible_mask.flags.writeable
        given = self.scrambled(model.feasible, np.random.default_rng(len(name)))
        rebuilt = model._replace(feasible=given)
        assert rebuilt.feasible == loop_feasible(given, *shape)[0] == sets
        assert rebuilt.feasible_mask.tobytes() == mask.tobytes()
        assert all(type(a) is int for per_state in rebuilt.feasible
                   for acts in per_state for a in acts)
        from_mask = model._replace(feasible=mask)
        assert from_mask.feasible == sets
        assert from_mask.feasible_mask.tobytes() == mask.tobytes()

    def test_mask_is_copied(self):
        model = FEASIBLE_CASES[-1][1]
        mask = model.feasible_mask.copy()
        copy = model._replace(feasible=mask)
        mask[...] = False
        assert copy.feasible == model.feasible

    @pytest.mark.parametrize(
        "feasible, message",
        [
            ((((0,), (0,)),) * 2, "feasible sets must cover 1 epochs, got 2"),
            ((((0,),),), "feasible sets at epoch 0 must cover 2 states"),
            ((((0,), (0, 1)),), "feasible action out of range at epoch 0, state 1"),
            ((((-1,), (0,)),), "feasible action out of range at epoch 0, state 0"),
            (np.ones((1, 2, 2), dtype=bool), r"feasible mask must have shape \(1, 2, 1\)"),
        ],
    )
    def test_malformed_sets_refused(self, feasible, message):
        with pytest.raises(ValueError, match=message):
            two_state_model()._replace(feasible=feasible)
