import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import random_belief, random_model
from oracles import (
    cumulative_by_sort,
    sampler_table_by_epoch,
    successor_table_by_epoch,
    walked_trajectories,
)

from ambmdp import cli, oracle, seqtest
from ambmdp.bayes import policy_cost_profile, solve_bayes
from ambmdp.errors import TrajectoryLimitError
from ambmdp.model import Belief, ParameterSet, StatisticalMDP
from ambmdp.oracle import DEFAULT_TRAJECTORY_CAP, enumerate_cost, mc_estimate

try:
    import resource
except ImportError:  # not POSIX
    resource = None


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


def dying_model():
    """Two parameters, three states and three epochs, starting in s0.  Under
    t1, s0 moves to s1 and s1 stays in s1 with probability 1e-200 each, so
    after two such steps the likelihood of t1 is 0 and the tree keeps no
    branch from (epoch 2, s1) to s2, the one place t1 goes from there: the
    partial trajectory s0 s1 s1 dies under t1, and two trajectories remain."""
    tiny = 1e-200
    transition = np.zeros((3, 2, 3, 1, 3))
    transition[:, :, 0, 0, 0] = 1.0
    transition[:, :, 1, 0, 1] = 1.0
    transition[:, :, 2, 0, 2] = 1.0
    transition[0, 0, 0, 0, :2] = 0.5
    transition[0, 1, 0, 0, :2] = 1.0, tiny
    transition[1, 0, 1, 0, :2] = 0.5
    transition[1, 1, 1, 0, :2] = 1.0, tiny
    transition[2, :, 1, 0] = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    return StatisticalMDP(
        horizon=3,
        states=("s0", "s1", "s2"),
        actions=("a0",),
        params=ParameterSet(("t0", "t1")),
        feasible=tuple((((0,),) * 3) for _ in range(3)),
        initial_kernel=np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        transition=transition,
        stage_cost=np.ones((3, 2, 3, 1)),
        terminal_cost=np.array([[0.0, 0.5, 2.0], [0.0, 0.5, 2.0]]),
    )


def wide_model(horizon=12):
    """One parameter, 4 states, 2 actions and 12 epochs, every move equally
    likely: 52 tree nodes and 4**13 (about 6.7e7) trajectories; with
    another horizon, 4**(horizon + 1) trajectories."""
    n_e, n_a = 4, 2
    return StatisticalMDP(
        horizon=horizon,
        states=tuple(f"s{x}" for x in range(n_e)),
        actions=("a0", "a1"),
        params=ParameterSet(("t0",)),
        feasible=tuple(((0, 1),) * n_e for _ in range(horizon)),
        initial_kernel=np.full((1, n_e), 1.0 / n_e),
        transition=np.full((horizon, 1, n_e, n_a, n_e), 1.0 / n_e),
        stage_cost=np.arange(horizon * n_e * n_a, dtype=float).reshape(horizon, 1, n_e, n_a),
        terminal_cost=np.arange(n_e, dtype=float)[None, :],
    )


def pruned(model, rng):
    """``model`` with next states removed from its initial and transition
    rows at random, alike for every parameter (each row keeps one), so that
    the tree prunes those branches."""
    def cut(rows):
        keep = rng.random(rows.shape[1:]) < 0.6
        keep[..., 0] |= ~keep.any(axis=-1)
        rows = rows * keep
        return rows / rows.sum(axis=-1, keepdims=True)

    return model._replace(
        initial_kernel=cut(model.initial_kernel),
        transition=cut(model.transition.transpose(1, 0, 2, 3, 4)).transpose(1, 0, 2, 3, 4),
    )


def differential_models() -> dict:
    """The models the enumeration and its tables are checked on against the
    depth-first walk and the per-epoch table."""
    rng = np.random.default_rng(37)
    models = {f"seqtest-H{h}": seqtest.build_model(seqtest.SeqTestConfig(horizon=h))
              for h in (1, 4, 32)}
    models.update(chain=chain_model(), zero_horizon=zero_horizon_model(),
                  mixed_successor=mixed_successor_model(), dying=dying_model())
    for k in range(1, 5):
        shape = {"n_params": k, "horizon": 5 - k, "n_states": 3, "n_actions": 2}
        models[f"random-K{k}"] = random_model(rng, **shape)
        models[f"random-K{k}-pruned"] = pruned(random_model(rng, **shape), rng)
    return models


DIFFERENTIAL_MODELS = differential_models()
#: cost scales; -0.0 turns costs into zeros of either sign, which a sum from
#: 0.0 adds as the walk does; seqtest at H = 32 with negative costs observes
#: at every epoch, 2**32 trajectories that the walk would take days over
DIFFERENTIAL_CASES = [
    (name, scale) for name in DIFFERENTIAL_MODELS
    for scale in (1.0, 1e300, -1e300, 1e-300, -0.0)
    if (name, scale) != ("seqtest-H32", -1e300)
]


def scaled(model, scale: float):
    return model._replace(stage_cost=model.stage_cost * scale,
                          terminal_cost=model.terminal_cost * scale)


def bayes_policy(model):
    return solve_bayes(model, Belief.uniform(model.n_params)).policy


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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

    @pytest.mark.parametrize(
        "name, scale", DIFFERENTIAL_CASES, ids=[f"{n}-x{s:g}" for n, s in DIFFERENTIAL_CASES])
    def test_matches_the_depth_first_walk_bit_for_bit(self, name, scale):
        model = scaled(DIFFERENTIAL_MODELS[name], scale)
        policy = bayes_policy(model)
        for theta in range(model.n_params):
            value, records = enumerate_cost(model, theta, policy)
            walked, walked_records = walked_trajectories(model, theta, policy)
            assert value.hex() == walked.hex()
            assert records == walked_records
            bits = [(r.probability.hex(), r.total_cost.hex()) for r in records]
            assert bits == [(r.probability.hex(), r.total_cost.hex()) for r in walked_records]

    @pytest.mark.parametrize("name", ["mixed_successor", "dying", "random-K1", "random-K2-pruned"])
    def test_cap_at_the_count_passes_and_one_below_raises(self, name):
        # the count is of complete trajectories: under t1 the dying model
        # has three partial trajectories at epoch 2 and two complete ones
        model = DIFFERENTIAL_MODELS[name]
        policy = bayes_policy(model)
        for theta in range(model.n_params):
            _, walked = walked_trajectories(model, theta, policy)
            assert len(walked) >= 2
            assert enumerate_cost(model, theta, policy, len(walked))[1] == walked
            with pytest.raises(TrajectoryLimitError, match=f"cap {len(walked) - 1}$"):
                enumerate_cost(model, theta, policy, len(walked) - 1)
        if name == "dying":
            assert len(walked_trajectories(model, 1, policy)[1]) == 2

    def test_over_cap_model_is_refused_before_any_record(self, monkeypatch):
        # the count refuses 4**13 trajectories before a record is built
        model = wide_model()
        policy = bayes_policy(model)
        assert len(policy.tree) == 52
        built = []
        monkeypatch.setattr(oracle, "TrajectoryRecord", lambda *fields: built.append(fields))
        with pytest.raises(TrajectoryLimitError, match=f"cap {DEFAULT_TRAJECTORY_CAP}$"):
            enumerate_cost(model, 0, policy)
        assert built == []

    def test_peak_memory_is_mostly_the_records(self):
        # 4**7 records: each trajectory's nodes and labels are listed a chunk
        # of trajectories at a time, so the records are most of the peak
        model = wide_model(horizon=6)
        policy = bayes_policy(model)
        oracle._table(model, 0, policy)  # kept on the policy, not counted
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            records = enumerate_cost(model, 0, policy)[1]
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 4**7
        assert peak - start <= 1.5 * (held - start)

    @pytest.mark.skipif(resource is None or not os.path.exists("/proc/self/statm"),
                        reason="needs POSIX resource limits and /proc/self/statm")
    def test_over_cap_model_is_refused_in_64_mib_of_address_space(self):
        # the child limits its own address space to what it holds once the
        # policy is built, plus 64 MiB
        script = (
            "import resource, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_oracle import bayes_policy, wide_model\n"
            "from ambmdp.errors import TrajectoryLimitError\n"
            "from ambmdp.oracle import enumerate_cost\n"
            "model = wide_model()\n"
            "policy = bayes_policy(model)\n"
            "with open('/proc/self/statm') as f:\n"
            "    held = int(f.read().split()[0]) * resource.getpagesize()\n"
            "resource.setrlimit(resource.RLIMIT_AS, (held + (64 << 20),) * 2)\n"
            "try:\n"
            "    enumerate_cost(model, 0, policy)\n"
            "except TrajectoryLimitError as exc:\n"
            "    print(exc)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"trajectory enumeration exceeds cap {DEFAULT_TRAJECTORY_CAP}\n"


class TestSuccessorTable:
    @pytest.mark.parametrize("name", DIFFERENTIAL_MODELS)
    def test_whole_tree_table_matches_the_per_epoch_one(self, name):
        model = DIFFERENTIAL_MODELS[name]
        policy = bayes_policy(model)
        for theta in range(model.n_params):
            rows, child, _, _, cost = oracle._successors(model, theta, policy)
            if name.endswith("pruned"):
                assert (child < 0).any()
            expected = successor_table_by_epoch(model, theta, policy)
            assert all(map(same_bits, (rows, child, cost), expected))
            sampler = oracle._sampler_table(model, theta, policy)
            assert all(map(same_bits, sampler, sampler_table_by_epoch(model, theta, policy)))

    def test_cumulative_by_rank_matches_the_stable_sort(self, rng):
        # random tables of 1 to 10 columns, with zero columns, zero entries
        # (some -0.0) and dead rows, which read 1 throughout: the same
        # column order and the same bits
        for _ in range(300):
            n_rows, n_columns = int(rng.integers(0, 30)), int(rng.integers(1, 11))
            probs = rng.uniform(size=(n_rows, n_columns)) ** 3
            probs[rng.uniform(size=probs.shape) < rng.uniform()] = 0.0
            probs[:, rng.uniform(size=n_columns) < 0.3] = 0.0
            probs[rng.uniform(size=n_rows) < 0.2] = 0.0
            probs[(probs == 0.0) & (rng.uniform(size=probs.shape) < 0.5)] = -0.0
            with np.errstate(invalid="ignore"):  # a dead row divides 0 by 0
                by_rank, by_sort = oracle._cumulative(probs), cumulative_by_sort(probs)
            assert all(map(same_bits, by_rank, by_sort))

    def test_one_successor_table_per_simulate_run(self, monkeypatch):
        # the enumeration and the sampler read one table of the policy under theta
        built = []
        build = oracle._successors
        monkeypatch.setattr(oracle, "_successors", lambda *args: built.append(1) or build(*args))
        config = Path(__file__).resolve().parents[1] / "configs" / "simulate.cfg"
        assert cli.main(["simulate", "--config", str(config)]) == 0
        assert len(built) == 1


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

    @pytest.mark.parametrize("blocks, budget", [(1, 1 << 18), (2, 2_500 * 33), (7, 715 * 33)])
    def test_pinned_long_horizon_in_one_two_and_seven_draw_blocks(self, monkeypatch, blocks,
                                                                   budget):
        # a batch of 5,000 rows of 33 uniforms, drawn in 1, 2 or 7 blocks
        assert math.ceil(5_000 / (budget // 33)) == blocks
        model = seqtest.build_model(seqtest.SeqTestConfig(horizon=32))
        solution = solve_bayes(model, seqtest.prior_belief(0.5))
        monkeypatch.setattr(oracle, "DRAW_FLOATS", budget)
        assert mc_estimate(model, 0, solution.policy, samples=5_000, seed=201) == (
            4.416, 0.13146748203965408
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
