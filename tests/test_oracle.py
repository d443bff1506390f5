import numpy as np
import pytest
from helpers import random_belief, random_model

from ambmdp import oracle, seqtest
from ambmdp.bayes import policy_cost_profile, solve_bayes
from ambmdp.errors import TrajectoryLimitError
from ambmdp.model import Belief, ParameterSet, StatisticalMDP
from ambmdp.oracle import enumerate_cost, mc_estimate


def chain_model():
    """Deterministic two-step chain s0 -> s1 -> s2 with unit stage costs."""
    params = ParameterSet(("t0",))
    n_e, n_a, horizon = 3, 1, 2
    transition = np.zeros((horizon, 1, n_e, n_a, n_e))
    transition[0, 0, :, 0, 1] = 1.0
    transition[1, 0, :, 0, 2] = 1.0
    model = StatisticalMDP(
        horizon=horizon,
        states=("s0", "s1", "s2"),
        actions=("a0",),
        params=params,
        feasible=tuple((((0,),) * n_e) for _ in range(horizon)),
        initial_kernel=np.array([[1.0, 0.0, 0.0]]),
        transition=transition,
        stage_cost=np.ones((horizon, 1, n_e, n_a)),
        terminal_cost=np.array([[0.0, 0.0, 0.5]]),
    )
    return model


def zero_horizon_model():
    """No decision: the cost is the terminal cost of the initial state."""
    return StatisticalMDP(
        horizon=0,
        states=("s0", "s1"),
        actions=("a0",),
        params=ParameterSet(("t0",)),
        feasible=(),
        initial_kernel=np.array([[0.25, 0.75]]),
        transition=np.zeros((0, 1, 2, 1, 2)),
        stage_cost=np.zeros((0, 1, 2, 1)),
        terminal_cost=np.array([[1.0, 3.0]]),
    )


def mixed_successor_model():
    """Three epochs over three states whose rows have 3, 1 and 2 positive
    successors: s0 moves anywhere, s1 always moves to s2 (its one positive
    entry is its last column), and s2 skips s1.  The row of s1 prunes two
    branches under both parameters."""
    params = ParameterSet(("t0", "t1"))
    horizon = 3
    rows = np.array([
        [[0.2, 0.3, 0.5], [0.0, 0.0, 1.0], [0.6, 0.0, 0.4]],
        [[0.5, 0.25, 0.25], [0.0, 0.0, 1.0], [0.1, 0.0, 0.9]],
    ])
    return StatisticalMDP(
        horizon=horizon,
        states=("s0", "s1", "s2"),
        actions=("a0",),
        params=params,
        feasible=tuple((((0,),) * 3) for _ in range(horizon)),
        initial_kernel=np.array([[0.5, 0.5, 0.0], [0.3, 0.3, 0.4]]),
        transition=np.broadcast_to(rows[None, :, :, None, :], (horizon, 2, 3, 1, 3)).copy(),
        stage_cost=np.broadcast_to(
            np.array([[1.0, 0.0, 2.5], [0.5, 0.0, 3.0]])[None, :, :, None], (horizon, 2, 3, 1)
        ).copy(),
        terminal_cost=np.array([[0.0, 4.0, 1.0], [2.0, 4.0, 0.0]]),
    )


class TestEnumerateCost:
    def test_zero_horizon_averages_terminal_cost(self):
        model = zero_horizon_model()
        solution = solve_bayes(model, Belief.uniform(1))
        value, records = enumerate_cost(model, 0, solution.policy)
        assert value == pytest.approx(0.25 * 1.0 + 0.75 * 3.0, abs=1e-15)
        assert len(records) == 2

    def test_deterministic_chain_single_trajectory(self):
        model = chain_model()
        solution = solve_bayes(model, Belief.uniform(1))
        value, records = enumerate_cost(model, 0, solution.policy)
        assert len(records) == 1
        record = records[0]
        assert record.probability == 1.0
        assert record.total_cost == pytest.approx(2.5, abs=1e-15)
        assert record.sequence == ("s0", "a0", "s1", "a0", "s2")
        assert value == pytest.approx(2.5, abs=1e-15)

    def test_matches_backward_induction_on_seqtest(self, bench_model):
        solution = solve_bayes(bench_model, seqtest.prior_belief(0.5))
        for theta in range(2):
            value, _ = enumerate_cost(bench_model, theta, solution.policy)
            assert value == pytest.approx(
                policy_cost_profile(bench_model, solution.policy)[theta], abs=1e-12
            )

    def test_matches_backward_induction_on_random_models(self, rng):
        for _ in range(30):
            model = random_model(rng)
            prior = random_belief(rng, model.n_params)
            solution = solve_bayes(model, prior)
            theta = int(rng.integers(model.n_params))
            value, records = enumerate_cost(model, theta, solution.policy)
            assert value == pytest.approx(
                policy_cost_profile(model, solution.policy)[theta], abs=1e-12
            )
            total = sum(r.probability for r in records)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_trajectory_cap_guard(self, rng):
        model = random_model(rng, n_states=4, n_actions=2, horizon=3)
        solution = solve_bayes(model, random_belief(rng, model.n_params))
        with pytest.raises(TrajectoryLimitError, match="3"):
            enumerate_cost(model, 0, solution.policy, trajectory_cap=3)


class TestMcEstimate:
    def test_reproducible_for_fixed_seed(self, bench_model):
        # prior 0.5 lies in the continue region, so trajectories are random
        solution = solve_bayes(bench_model, seqtest.prior_belief(0.5))
        first = mc_estimate(bench_model, 0, solution.policy, samples=500, seed=11)
        second = mc_estimate(bench_model, 0, solution.policy, samples=500, seed=11)
        assert first == second
        third = mc_estimate(bench_model, 0, solution.policy, samples=500, seed=12)
        assert third != first

    def test_zero_cost_model(self, rng):
        model = random_model(rng, cost_range=(0.0, 0.0))
        solution = solve_bayes(model, random_belief(rng, model.n_params))
        assert mc_estimate(model, 0, solution.policy, samples=200, seed=3) == (0.0, 0.0)

    def test_one_sample_has_zero_width(self, bench_model):
        # one cost is no spread to estimate; the width is 0, not NaN
        solution = solve_bayes(bench_model, seqtest.prior_belief(0.5))
        mean, half = mc_estimate(bench_model, 0, solution.policy, samples=1, seed=7)
        costs = {r.total_cost for r in enumerate_cost(bench_model, 0, solution.policy)[1]}
        assert mean in costs and half == 0.0

    def test_deterministic_chain_has_zero_width(self):
        model = chain_model()
        solution = solve_bayes(model, Belief.uniform(1))
        mean, half = mc_estimate(model, 0, solution.policy, samples=50, seed=5)
        assert mean == pytest.approx(2.5, abs=1e-15)
        assert half == 0.0

    def test_mean_close_to_exact_with_many_samples(self, bench_model):
        solution = solve_bayes(bench_model, seqtest.prior_belief(0.5))
        exact, _ = enumerate_cost(bench_model, 1, solution.policy)
        mean, half = mc_estimate(bench_model, 1, solution.policy, samples=100_000, seed=0)
        assert abs(mean - exact) <= half
        assert half < 0.1

    def test_interval_coverage_rate(self, bench_model):
        # 95% intervals should cover the exact value in at least 93 of 100
        # seeded repetitions
        solution = solve_bayes(bench_model, seqtest.prior_belief(0.5))
        exact, _ = enumerate_cost(bench_model, 0, solution.policy)
        covered = 0
        for seed in range(100):
            mean, half = mc_estimate(bench_model, 0, solution.policy, samples=2000, seed=seed)
            if abs(mean - exact) <= half:
                covered += 1
        assert covered >= 93

    def test_sample_count_validation(self, bench_model):
        solution = solve_bayes(bench_model, seqtest.prior_belief(0.5))
        with pytest.raises(ValueError, match="samples"):
            mc_estimate(bench_model, 0, solution.policy, samples=0, seed=1)

    def test_parameter_validation(self, bench_model):
        solution = solve_bayes(bench_model, seqtest.prior_belief(0.5))
        for theta in (-1, 2):
            with pytest.raises(ValueError, match="parameter index"):
                mc_estimate(bench_model, theta, solution.policy, samples=10, seed=1)

    def test_random_stream_is_pinned(self, monkeypatch):
        # each batch draws a row-major (count, horizon + 1) block of
        # uniforms, one row per sample; these figures were recorded from the
        # one-sample-at-a-time sampler the batched one replaced
        model = seqtest.build_model(seqtest.SeqTestConfig(horizon=4))
        solution = solve_bayes(model, seqtest.prior_belief(0.5))
        monkeypatch.setattr(oracle, "BATCH_SIZE", 7_000)
        result = mc_estimate(model, 1, solution.policy, samples=20_000, seed=2024)
        assert result == (4.2735, 0.06503582848529983)

    def test_batch_split_covers_every_sample(self, monkeypatch):
        # zero-variance chain: any batch partition must average exactly 2.5
        model = chain_model()
        solution = solve_bayes(model, Belief.uniform(1))
        for batch_size in (1, 7, 50, 10_000):
            monkeypatch.setattr(oracle, "BATCH_SIZE", batch_size)
            mean, half = mc_estimate(model, 0, solution.policy, samples=23, seed=2)
            assert mean == pytest.approx(2.5, abs=1e-15)
            assert half == 0.0

    # Figures below were recorded from the per-epoch sampler that the one
    # table over all decision nodes replaced; they must not move by a bit.

    def test_pinned_on_seqtest_long_horizon(self):
        model = seqtest.build_model(seqtest.SeqTestConfig(horizon=32))
        solution = solve_bayes(model, seqtest.prior_belief(0.5))
        assert mc_estimate(model, 0, solution.policy, samples=5_000, seed=201) == (
            4.416, 0.13146748203965408
        )
        assert mc_estimate(model, 1, solution.policy, samples=5_000, seed=201) == (
            4.19, 0.12920621384879066
        )

    def test_pinned_on_random_model_over_three_batches(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, n_states=3, n_actions=2, horizon=4, n_params=3)
        solution = solve_bayes(model, random_belief(rng, 3))
        assert mc_estimate(model, 2, solution.policy, samples=23_456, seed=13) == (
            9.756816744598604, 0.04216039928021743
        )

    def test_pinned_with_partial_draw_blocks(self, monkeypatch):
        # 30 rows per draw block: batches of 500 and 234 samples each end
        # in a partial block
        rng = np.random.default_rng(11)
        model = random_model(rng, n_states=3, n_actions=2, horizon=3)
        solution = solve_bayes(model, random_belief(rng, model.n_params))
        monkeypatch.setattr(oracle, "DRAW_FLOATS", 120)
        monkeypatch.setattr(oracle, "BATCH_SIZE", 500)
        assert mc_estimate(model, 1, solution.policy, samples=1_234, seed=5) == (
            3.031418225407694, 0.14378498748596177
        )

    def test_zero_horizon_model(self):
        model = zero_horizon_model()
        solution = solve_bayes(model, Belief.uniform(1))
        mean, half = mc_estimate(model, 0, solution.policy, samples=1_000, seed=4)
        assert (mean, half) == (2.494, 0.053916772165261494)
        assert abs(mean - enumerate_cost(model, 0, solution.policy)[0]) <= 4 * half

    def test_rows_with_different_successor_counts(self):
        model = mixed_successor_model()
        solution = solve_bayes(model, Belief.uniform(2))
        assert (solution.tree.epochs[0].child == -1).any()
        for theta in range(2):
            exact, _ = enumerate_cost(model, theta, solution.policy)
            mean, half = mc_estimate(model, theta, solution.policy, samples=20_000, seed=3)
            assert 0.0 < half < 0.1
            assert abs(mean - exact) <= 4 * half
