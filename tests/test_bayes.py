import gc
import weakref
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    counted_passes,
    decision_nodes,
    enumerate_policies,
    pairs_key,
    policy_count,
    policy_from,
    random_belief,
    random_model,
    subnormal_prior_model,
)
from oracles import eager_bayes_outputs, first_of_equal_rows, history_value

from ambmdp import seqtest
from ambmdp.ambiguity import certify_saddle, solve
from ambmdp.bayes import (
    DeterministicPolicy,
    bayes_cost,
    build_tree,
    policy_cost_profile,
    solve_bayes,
)
from ambmdp.belief import predictive, update_posterior
from ambmdp.cli import _figure_rows, _outer_mode, parse_config
from ambmdp import bayes, oracle
from ambmdp.errors import PolicyTreeMismatchError, TreeSizeLimitError
from ambmdp.model import Belief, ParameterSet, StatisticalMDP, validate
from ambmdp.oracle import enumerate_cost, mc_estimate

A_DECLARE_1 = seqtest.ACTIONS.index("declare_theta1")
A_CONTINUE = seqtest.ACTIONS.index("continue")
X_STOPPED = seqtest.STATES.index("stopped")
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def declare_first_policy(tree) -> DeterministicPolicy:
    """Declare theta1 whenever possible, otherwise the stopped no-op."""
    actions = {}
    for index, n, state in decision_nodes(tree):
        feasible = tree.model.feasible[n][state]
        actions[index] = A_DECLARE_1 if A_DECLARE_1 in feasible else feasible[0]
    return policy_from(tree, actions)


def pair_masses(tree, n, p) -> np.ndarray:
    """Next-state masses from pair ``p`` of epoch ``n``, by ``predictive``."""
    epoch, node = tree.epochs[n], tree.epochs[n].pair_node[p]
    state, belief = int(epoch.state[node]), Belief(tree.belief[tree.offsets[n] + node])
    action = int(epoch.pair_cell[p]) % tree.model.n_actions
    return predictive(tree.model, n, state, belief, action).masses


def branches(tree):
    """(epoch, node index within it, action, next state, child index within
    the next epoch, mass) for every unpruned branch."""
    for n, epoch in enumerate(tree.epochs):
        for p, x in zip(*np.nonzero(epoch.child >= 0)):
            yield (
                n, int(epoch.pair_node[p]), int(epoch.pair_cell[p]) % tree.model.n_actions,
                int(x), int(epoch.child[p, x]), float(pair_masses(tree, n, p)[x]),
            )


def unreached_pruned_branch_model():
    """One action, H=2, start in s0.  Epoch 0 from s0: t0 moves to s1; t1
    moves to s1 or s2 with probability 1/2 each.  Epoch 1 from s2: t0 moves
    to s0, t1 to s1.  s1 and s2 otherwise stay, and s0 stays at epoch 1.
    At a (1/2, 1/2) prior, s2 is reached only under t1, so its move to s0
    is pruned, although t0 never gets there."""
    transition = np.zeros((2, 2, 3, 1, 3))
    transition[:, :, 1, 0, 1] = 1.0
    transition[:, :, 2, 0, 2] = 1.0
    transition[0, 0, 0, 0] = [0.0, 1.0, 0.0]
    transition[0, 1, 0, 0] = [0.0, 0.5, 0.5]
    transition[1, :, 0, 0, 0] = 1.0
    transition[1, 0, 2, 0] = [1.0, 0.0, 0.0]
    transition[1, 1, 2, 0] = [0.0, 1.0, 0.0]
    return StatisticalMDP(
        horizon=2,
        states=("s0", "s1", "s2"),
        actions=("a0",),
        params=ParameterSet(("t0", "t1")),
        feasible=(((0,),) * 3,) * 2,
        initial_kernel=np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        transition=transition,
        stage_cost=np.ones((2, 2, 3, 1)),
        terminal_cost=np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]),
    )


def _merge_keys(model) -> list[np.ndarray]:
    """The merge key of every epoch of ``model``'s DAG build."""
    keys = []
    merge = bayes._first_of_equal_rows
    bayes._first_of_equal_rows = lambda key: keys.append(key) or merge(key)
    try:
        build_tree(model, Belief.uniform(model.n_params))
    finally:
        bayes._first_of_equal_rows = merge
    return keys


def _duplicated_keys(seed: int) -> np.ndarray:
    """Rows of (state, belief) drawn from a few distinct rows, with -0.0
    beside 0.0: 300 rows and at most 20 groups."""
    rng = np.random.default_rng(seed)
    distinct = np.column_stack((rng.integers(0, 3, 20), rng.dirichlet(np.ones(3), 20)))
    distinct[::4, 1] = 0.0
    key = np.round(distinct, 12)[rng.integers(0, 20, 300)]
    key[::7, 1] *= -1.0
    return key


class TestMergeEqualChildren:
    """``_first_of_equal_rows`` against the sort on every key column."""

    @staticmethod
    def assert_same_as_reference(key):
        first, group = bayes._first_of_equal_rows(key)
        want_first, want_group = first_of_equal_rows(key)
        np.testing.assert_array_equal(first, want_first)
        np.testing.assert_array_equal(group, want_group)

    @pytest.mark.parametrize("seed", range(5))
    def test_heavily_duplicated_keys(self, seed):
        self.assert_same_as_reference(_duplicated_keys(seed))

    @pytest.mark.parametrize("rows", [
        np.array([[1.0, 0.25, 0.75]]),
        np.tile([2.0, 0.5, 0.5], (9, 1)),
        np.array([[0.0, np.nan], [0.0, np.nan], [0.0, 1.0]]),
        np.empty((0, 3)),
        # more columns than hash multipliers, which are then reused
        np.tile(np.random.default_rng(3).random((3, 70)), (4, 1)),
    ], ids=["one-row", "all-equal", "nan", "empty", "70-columns"])
    def test_small_keys(self, rows):
        self.assert_same_as_reference(rows)

    @pytest.mark.parametrize("collide", [
        lambda groups: np.zeros_like(groups),
        lambda groups: groups // 2,
    ], ids=["one-hash", "two-groups-a-hash"])
    def test_colliding_hashes_fall_back_to_the_full_sort(self, collide, monkeypatch):
        key = _duplicated_keys(7)
        want_first, want_group = first_of_equal_rows(key)
        hashes = collide(want_group).astype(np.uint64)
        monkeypatch.setattr(bayes, "_row_hash", lambda key: hashes)
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
        first, group = bayes._first_of_equal_rows(key)
        assert sorts == [1]
        np.testing.assert_array_equal(first, want_first)
        np.testing.assert_array_equal(group, want_group)

    def test_hashes_in_any_order_need_no_fallback(self, monkeypatch):
        key = _duplicated_keys(8)
        want_first, want_group = first_of_equal_rows(key)
        hashes = (want_group.max() - want_group).astype(np.uint64)
        monkeypatch.setattr(bayes, "_row_hash", lambda key: hashes)
        monkeypatch.setattr(np, "lexsort", None)
        first, group = bayes._first_of_equal_rows(key)
        np.testing.assert_array_equal(first, want_first)
        np.testing.assert_array_equal(group, want_group)

    def test_every_epoch_of_the_bench_models(self):
        rng = np.random.default_rng(1)
        models = [
            seqtest.build_model(seqtest.SeqTestConfig(horizon=32)),
            random_model(rng, n_states=3, n_actions=2, horizon=4, n_params=3,
                         full_feasible=True),
        ]
        for model in models:
            keys = _merge_keys(model)
            assert len(keys) == model.horizon
            for key in keys:
                self.assert_same_as_reference(key)


class TestBuildTree:
    def test_zero_horizon_tree_has_roots_only(self):
        model = StatisticalMDP(
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
        tree = build_tree(model, Belief.uniform(1))
        assert len(tree) == 2
        assert len(tree.epochs) == 1 and tree.epochs[0].pair_node.size == 0

    def test_seqtest_two_observation_tree_is_small(self):
        model = seqtest.build_model(seqtest.SeqTestConfig(horizon=2))
        tree = build_tree(model, seqtest.prior_belief(0.3))
        assert len(tree) <= 30
        for _, n, state in decision_nodes(tree):
            if state == X_STOPPED:
                assert model.feasible[n][state] == (A_CONTINUE,)

    def test_point_mass_prior_is_invariant(self, bench_model):
        tree = build_tree(bench_model, seqtest.prior_belief(1.0))
        for belief in tree.belief:
            np.testing.assert_array_equal(belief, [1.0, 0.0])

    def test_zero_mass_branches_are_pruned(self, bench_model):
        tree = build_tree(bench_model, seqtest.prior_belief(0.3))
        assert all(mass > 0.0 for *_, mass in branches(tree))

    def test_child_masses_sum_to_one(self, rng):
        model = random_model(rng)
        tree = build_tree(model, random_belief(rng, model.n_params))
        for n, epoch in enumerate(tree.epochs[:-1]):
            for p, children in enumerate(epoch.child):
                masses = pair_masses(tree, n, p)[children >= 0]
                assert masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_predictive_sums_are_renormalized_or_refused(self, rng):
        model = random_model(rng)
        prior = random_belief(rng, model.n_params)
        drifted = model._replace(transition=model.transition * (1.0 + 1e-9))
        tree = build_tree(drifted, prior)
        assert len(tree) == len(build_tree(model, prior))
        for n, epoch in enumerate(tree.epochs[:-1]):
            for p, children in enumerate(epoch.child):
                masses = pair_masses(tree, n, p)[children >= 0]
                assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        far = model._replace(transition=model.transition * (1.0 + 1e-3))
        with pytest.raises(ValueError, match="row sums are off"):
            build_tree(far, prior)

    def test_node_cap_guard(self, bench_model):
        with pytest.raises(TreeSizeLimitError, match="5"):
            build_tree(bench_model, seqtest.prior_belief(0.3), node_cap=5)

    def test_node_cap_below_the_root_count(self, rng):
        # the roots alone exceed the cap: refused before any epoch is grown,
        # and nothing is cached
        model = random_model(rng, n_states=3, n_params=2)
        assert np.count_nonzero(model.initial_kernel.sum(axis=0)) == 3
        with pytest.raises(TreeSizeLimitError, match="2"):
            build_tree(model, Belief.uniform(2), node_cap=2)
        assert model.belief_dag is None

    def test_beliefs_follow_root_path_updates(self, bench_model):
        # every tree belief is the posterior composition along its path
        tree = build_tree(bench_model, seqtest.prior_belief(0.3))
        for n, node, action, x_next, child, _ in branches(tree):
            epoch = tree.epochs[n]
            expected = update_posterior(
                bench_model, n, int(epoch.state[node]),
                Belief(tree.belief[tree.offsets[n] + node]), action, x_next,
            )
            np.testing.assert_allclose(
                tree.belief[tree.offsets[n + 1] + child], expected.weights, atol=1e-12
            )
            assert tree.epochs[n + 1].state[child] == x_next

    def test_children_match_predictive(self, rng):
        # the array builder against the one-node oracle: every feasible
        # action has a pair whose cell reads exactly the model's kernel rows
        # and stage costs, every positive predictive mass a child, and every
        # zero mass a pruned branch
        for _ in range(10):
            model = random_model(rng, n_params=int(rng.integers(2, 6)))
            tree = build_tree(model, random_belief(rng, model.n_params))
            dag = tree.dag
            for n, epoch in enumerate(tree.epochs[:-1]):
                actions = epoch.pair_cell % model.n_actions
                pairs = list(zip(epoch.pair_node.tolist(), actions.tolist()))
                expected_pairs = [
                    (i, a) for i, x in enumerate(epoch.state) for a in model.feasible[n][x]
                ]
                assert pairs == expected_pairs
                for p, (i, action) in enumerate(pairs):
                    state = int(epoch.state[i])
                    belief = Belief(tree.belief[tree.offsets[n] + i])
                    pred = predictive(model, n, state, belief, action)
                    kept = pred.masses > 0.0
                    cell = epoch.pair_cell[p]
                    assert cell == state * model.n_actions + action
                    np.testing.assert_array_equal(
                        dag.kernels[n][cell], model.transition[n, :, state, action]
                    )
                    np.testing.assert_array_equal(
                        dag.stages[n][cell], model.stage_cost[n, :, state, action]
                    )
                    np.testing.assert_array_equal(epoch.child[p] >= 0, kept)
                    for x in np.flatnonzero(kept):
                        child = epoch.child[p, x]
                        np.testing.assert_allclose(
                            tree.belief[tree.offsets[n + 1] + child],
                            pred.posteriors[x].weights,
                            atol=1e-12,
                        )

    def test_pair_cells_read_the_models_rows(self, rng):
        # random models with 1 to 4 parameters, infeasible actions and
        # zeros in the kernels: each pair's cell reads the model's kernel
        # rows and stage costs at the pair's (state, action), and a branch
        # is live where its kernel entry is positive and it has a child
        infeasible = zeros = 0
        for n_params in [1, 2, 3, 4] * 8:
            model = sparse_model(rng, n_params=n_params)
            infeasible += int((~model.feasible_mask).sum())
            dag = build_tree(model, Belief.uniform(n_params)).dag
            cells = model.n_states * model.n_actions
            assert dag.kernels.shape == (model.horizon, cells, n_params, model.n_states)
            assert dag.stages.shape == (model.horizon, cells, n_params)
            for n, epoch in enumerate(dag.epochs[:-1]):
                action = epoch.pair_cell % model.n_actions
                at = (n, slice(None), epoch.state[epoch.pair_node], action)
                kernel = dag.kernels[n][epoch.pair_cell]
                assert np.array_equal(kernel, model.transition[at])
                assert np.array_equal(dag.stages[n][epoch.pair_cell], model.stage_cost[at])
                has_child = (epoch.child >= 0)[:, None, :]
                assert np.array_equal(epoch.live, (kernel > 0.0) & has_child)
                zeros += int((kernel == 0.0).sum())
        assert infeasible and zeros

    def test_long_horizon_dag_holds_few_bytes_per_node(self):
        # every array the seqtest 0.3/0.6 DAG holds at H = 64: the model's
        # tables once, not a kernel row and stage cost per pair
        config = seqtest.SeqTestConfig(horizon=64, p_low=0.3, p_high=0.6)
        tree = build_tree(seqtest.build_model(config), seqtest.prior_belief(0.5))
        dag = tree.dag
        held = [dag.likelihood, dag.offsets, dag.root_of, dag.kernels, dag.stages,
                dag.terminal, *dag.root_step, *(a for e in dag.epochs for a in e)]
        assert len(tree) == 48_987
        assert sum(a.nbytes for a in held) <= 100 * len(tree)

    def test_offsets_number_the_epochs(self, rng):
        model = random_model(rng, horizon=3)
        tree = build_tree(model, random_belief(rng, model.n_params))
        assert tree.nodes_per_epoch == [len(epoch.state) for epoch in tree.epochs]
        assert sum(tree.nodes_per_epoch) == len(tree) == tree.offsets[-1]
        root_of, roots = tree.dag.root_of, tree.epochs[0].state
        assert root_of[root_of >= 0].tolist() == sorted(
            range(len(roots)), key=lambda i: roots[i]
        )
        assert root_of[roots].tolist() == list(range(len(roots)))
        assert ((root_of >= 0) == model.initial_kernel.any(axis=0)).all()


class TestSolveBayes:
    def test_matches_piecewise_closed_form(self, bench_model):
        for mu in (0.0, 0.1, 0.3, 13.0 / 30.0, 0.5, 17.0 / 30.0, 0.8, 1.0):
            value = solve_bayes(bench_model, seqtest.prior_belief(mu)).value
            assert value == pytest.approx(seqtest.optimal_value(mu), abs=1e-12)

    def test_known_point_value(self, bench_model):
        value = solve_bayes(bench_model, seqtest.prior_belief(0.3)).value
        assert value == pytest.approx(3.0, abs=1e-12)

    def test_zero_cost_model_has_zero_value(self, rng):
        model = random_model(rng, cost_range=(0.0, 0.0))
        value = solve_bayes(model, random_belief(rng, model.n_params)).value
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_bellman_consistency_at_every_node(self, rng):
        # node values must equal the minimum of the Bellman right-hand side
        model = random_model(rng)
        prior = random_belief(rng, model.n_params)
        tree = solve_bayes(model, prior).tree
        values = eager_bayes_outputs(model, prior)[0]
        for index, n, state in decision_nodes(tree):
            epoch = tree.epochs[n]
            node = index - tree.offsets[n]
            belief = Belief(tree.belief[index])
            best = np.inf
            for action in model.feasible[n][state]:
                pred = predictive(model, n, state, belief, action)
                q = float(belief.weights @ model.stage_cost[n, :, state, action])
                pair_action = epoch.pair_cell % model.n_actions
                (p,) = np.flatnonzero((epoch.pair_node == node) & (pair_action == action))
                for x_next in np.flatnonzero(epoch.child[p] >= 0):
                    mass = pred.masses[x_next]
                    child = tree.offsets[n + 1] + epoch.child[p, x_next]
                    q += mass * values[child]
                best = min(best, q)
            assert values[index] == pytest.approx(best, abs=1e-12)

    def test_value_is_root_mixture(self, rng):
        model = random_model(rng)
        prior = random_belief(rng, model.n_params)
        solution = solve_bayes(model, prior)
        values = eager_bayes_outputs(model, prior)[0]
        masses = prior.weights @ model.initial_kernel
        root_of = solution.tree.dag.root_of
        mixture = sum(masses[x] * values[root_of[x]] for x in np.flatnonzero(root_of >= 0))
        assert solution.value == pytest.approx(mixture, abs=1e-13)


def sparse_model(rng, n_params=3):
    """A random model whose kernels have zeros: each entry is kept with
    probability 1/2 (at least one per row), then the rows renormalized."""
    model = random_model(rng, n_params=n_params)

    def thinned(table):
        keep = rng.uniform(size=table.shape) < 0.5
        keep[..., 0] |= ~keep.any(axis=-1)
        table = table * keep
        return table / table.sum(axis=-1, keepdims=True)

    return model._replace(
        initial_kernel=thinned(model.initial_kernel),
        transition=thinned(model.transition),
    )


class TestSolutionCosts:
    def test_costs_match_enumeration_under_every_parameter(self, rng):
        # a zero-weight parameter may reach nodes of zero mass under the
        # prior; its cost is exact all the same
        zero_mass_nodes = 0
        for _ in range(40):
            model = sparse_model(rng)
            weights = rng.dirichlet(np.ones(3))
            weights[int(rng.integers(3))] = 0.0
            prior = Belief(weights / weights.sum())
            solution = solve_bayes(model, prior)
            weighted = solution.tree.dag.likelihood * prior.weights
            zero_mass_nodes += int((~weighted.any(axis=1)).sum())
            for theta in range(model.n_params):
                assert np.isfinite(solution.costs[theta])
                assert solution.costs[theta] == policy_cost_profile(model, solution.policy)[theta]
                exact, _ = enumerate_cost(model, theta, solution.policy)
                assert solution.costs[theta] == pytest.approx(exact, abs=1e-12)
            assert solution.value == pytest.approx(
                float(prior.weights @ solution.costs), abs=1e-12
            )
        assert zero_mass_nodes > 0


def underflow_model() -> StatisticalMDP:
    """One action, three parameters that all start in s0, and from every
    state the rows t0 (1/2, 1/2, 0), t1 (0.6, 0.4, 0) and t2 (1e-300, 1/2,
    1/2 - 1e-300).  After two moves from s0 to s0 t2's normalized
    likelihood underflows to 0, while its kernel still moves half its mass
    to s2, which no other parameter reaches."""
    rows = np.array([[0.5, 0.5, 0.0], [0.6, 0.4, 0.0], [1e-300, 0.5, 0.5 - 1e-300]])
    return StatisticalMDP(
        horizon=3,
        states=("s0", "s1", "s2"),
        actions=("a",),
        params=ParameterSet(("t0", "t1", "t2")),
        feasible=(((0,), (0,), (0,)),) * 3,
        initial_kernel=np.tile([1.0, 0.0, 0.0], (3, 1)),
        transition=np.broadcast_to(rows[None, :, None, None, :], (3, 3, 3, 1, 3)),
        stage_cost=np.ones((3, 3, 3, 1)),
        terminal_cost=np.tile([0.0, 1.0, 2.0], (3, 1)),
    )


def markov_chain_costs(model: StatisticalMDP) -> list[float]:
    """Per parameter, the expected total cost of a one-action model, by
    moving the state distribution forward epoch by epoch."""
    costs = []
    for theta in range(model.n_params):
        dist, cost = model.initial_kernel[theta], 0.0
        for n in range(model.horizon):
            cost += float(dist @ model.stage_cost[n, theta, :, 0])
            dist = dist @ model.transition[n, theta, :, 0, :]
        costs.append(cost + float(dist @ model.terminal_cost[theta]))
    return costs


class TestLikelihoodUnderflow:
    def test_underflowed_parameter_has_a_finite_exact_cost(self):
        model = underflow_model()
        assert validate(model) == []
        expected = markov_chain_costs(model)
        assert expected == pytest.approx([3.5, 3.4, 4.5], abs=1e-12)
        priors = (Belief.uniform(3), Belief.point_mass(3, 2), Belief(np.array([0.2, 0.0, 0.8])))
        for prior in priors:
            solution = solve_bayes(model, prior)
            assert solution.costs.tolist() == pytest.approx(expected, abs=1e-12)
            assert np.isfinite(eager_bayes_outputs(model, prior)[0]).all()
            for theta in range(3):
                exact, _ = enumerate_cost(model, theta, solution.policy)
                assert exact == pytest.approx(expected[theta], abs=1e-12)

    def test_every_mode_solves_and_certifies(self):
        # numeric warnings are errors here, as the lp master's divide was
        model = underflow_model()
        for mode, gamma in (("robust", None), ("avar", 0.5), ("entropic", 1.0)):
            result = solve(model, mode, Belief.uniform(3), gamma)
            certificate = certify_saddle(model, result)
            assert certificate.mu_side_ok and certificate.pi_side_ok
            assert result.cost_profile.tolist() == pytest.approx([3.5, 3.4, 4.5], abs=1e-12)
        assert solve(model, "robust", Belief.uniform(3)).value == pytest.approx(4.5, abs=1e-12)

    def test_the_sampler_picks_only_branches_with_a_child(self):
        # in the last epoch t2 moves to s2 alone, which after two moves
        # from s0 to s0 it alone reaches: a node with no live branch for t2
        model = underflow_model()
        transition = np.array(model.transition)
        transition[2, 2] = [0.0, 0.0, 1.0]
        dead_end = model._replace(transition=transition)
        for m in (model, dead_end):
            policy = solve_bayes(m, Belief.uniform(3)).policy
            tree = policy.tree
            pruned = [e.child[:, None, :] < 0 for e in tree.epochs[:-1]]
            # t2's kernel rows by (state, action) cell
            kernels = [m.transition[n][2].reshape(-1, 3) for n in range(m.horizon)]
            reached = [k[e.pair_cell] > 0.0 for k, e in zip(kernels, tree.epochs)]
            assert any((p[:, 0] & r).any() for p, r in zip(pruned, reached))
            for theta in range(3):
                cumulative, child, node_cost = oracle._sampler_table(m, theta, policy)
                assert np.isfinite(cumulative).all()
                assert len(cumulative) + tree.epochs[-1].state.size == len(node_cost) == len(tree)
                # u in [0, 1) lands on column 0 (at u = 0), or on a later
                # column whose entry rises from one below 1
                rises = (cumulative[:, 1:] > cumulative[:, :-1]) & (cumulative[:, :-1] < 1.0)
                assert (child[:, 0] >= 0).all() and (child[:, 1:][rises] >= 0).all()
                assert np.isfinite(mc_estimate(m, theta, policy, 2000, seed=5)[0])
        no_branch = [
            (~(k[e.pair_cell] > 0.0) | (e.child < 0)).all(axis=1)
            for k, e in zip(kernels, tree.epochs)
        ]
        assert any(rows.any() for rows in no_branch)  # dead_end has such a node

    def test_subnormal_prior_keeps_each_zero_mass_likelihood(self):
        # every weight is positive, yet x1's weighted likelihood underflows:
        # its belief was once 0/0, NaN
        model = subnormal_prior_model()
        assert validate(model) == []
        solution = solve_bayes(model, Belief(np.array([5e-324, 5e-324, 1.0])))
        tree = solution.tree
        belief, likelihood = tree.belief, tree.dag.likelihood
        assert np.isfinite(belief).all()
        zero_mass = (likelihood * tree.prior.weights).sum(axis=1) == 0.0
        assert zero_mass.tolist() == [False, True, False, True, False]  # x1 at epochs 1, 2
        np.testing.assert_array_equal(belief[zero_mass], likelihood[zero_mass])
        assert belief[zero_mass].tolist() == [[0.5, 0.5, 0.0]] * 2
        assert np.isfinite(solution.costs).all() and np.isfinite(solution.value)

    def test_every_live_branch_has_a_child(self, rng):
        for model in [underflow_model()] + [sparse_model(rng) for _ in range(20)]:
            dag = build_tree(model, Belief.uniform(model.n_params)).dag
            for epoch in dag.epochs[:-1]:
                assert (epoch.child >= 0)[epoch.live.any(axis=1)].all()


class TestActionsOnFirstRead:
    def assert_eager(self, model, prior):
        policy = solve_bayes(model, prior).policy
        assert policy.actions.tobytes() == eager_bayes_outputs(model, prior)[1].tobytes()
        assert policy.actions is policy.actions

    @pytest.mark.parametrize("horizon", (1, 4))
    def test_seqtest_matches_the_eager_pass(self, horizon):
        model = seqtest.build_model(seqtest.SeqTestConfig(horizon=horizon))
        for mu in (0.0, 0.1, 0.3, 13.0 / 30.0, 0.5, 0.8, 1.0):
            self.assert_eager(model, seqtest.prior_belief(mu))

    def test_random_models_match_the_eager_pass(self, rng):
        for _ in range(60):
            model = sparse_model(rng, n_params=int(rng.integers(2, 6)))
            weights = rng.dirichlet(np.ones(model.n_params))
            weights[int(rng.integers(model.n_params))] = 0.0
            self.assert_eager(model, Belief(weights / weights.sum()))
            self.assert_eager(model, random_belief(rng, model.n_params))

    def test_unread_outputs_are_not_computed(self, rng):
        model = sparse_model(rng)
        solution = solve_bayes(model, random_belief(rng, 3))
        assert "actions" not in vars(solution.policy)
        for mode, gamma in (("entropic", 0.7), ("avar", 0.4), ("robust", None)):
            result = solve(model, mode, Belief.uniform(3), gamma)
            certify_saddle(model, result)
            assert "actions" not in vars(result.policy)
        # a policy given by its actions computes its pairs instead
        given = DeterministicPolicy(solution.tree, solution.policy.actions)
        assert "pairs" not in vars(given)
        assert [p.tolist() for p in given.pairs] == [p.tolist() for p in solution.policy.pairs]


class TestEvaluatePolicy:
    def test_immediate_declaration_costs(self, bench_model):
        tree = build_tree(bench_model, seqtest.prior_belief(0.5))
        policy = declare_first_policy(tree)
        assert policy_cost_profile(bench_model, policy)[0] == pytest.approx(0.0, abs=1e-15)
        assert policy_cost_profile(bench_model, policy)[1] == pytest.approx(10.0, abs=1e-12)

    def test_zero_cost_model(self, rng):
        model = random_model(rng, cost_range=(0.0, 0.0))
        solution = solve_bayes(model, random_belief(rng, model.n_params))
        for theta in range(model.n_params):
            assert policy_cost_profile(model, solution.policy)[theta] == pytest.approx(
                0.0, abs=1e-15
            )

    def test_model_mismatch_raises(self, rng, bench_model):
        other = random_model(rng)
        solution = solve_bayes(other, random_belief(rng, other.n_params))
        with pytest.raises(PolicyTreeMismatchError):
            policy_cost_profile(bench_model, solution.policy)

    def test_policy_must_cover_every_decision_node(self, bench_model):
        tree = build_tree(bench_model, seqtest.prior_belief(0.5))
        actions = declare_first_policy(tree).actions.copy()
        actions[tree.dag.root_of[seqtest.STATES.index("start")]] = -1
        with pytest.raises(PolicyTreeMismatchError, match="node"):
            policy_cost_profile(bench_model, DeterministicPolicy(tree=tree, actions=actions))
        with pytest.raises(PolicyTreeMismatchError):
            policy_cost_profile(bench_model, DeterministicPolicy(tree=tree, actions=actions[1:]))

    def test_pruned_branch_theta_never_reaches_is_not_an_error(self):
        model = unreached_pruned_branch_model()
        solution = solve_bayes(model, Belief(np.array([0.5, 0.5])))
        for theta, cost in ((0, 3.0), (1, 3.0)):
            assert policy_cost_profile(model, solution.policy)[theta] == cost
            assert enumerate_cost(model, theta, solution.policy)[0] == cost
            assert mc_estimate(model, theta, solution.policy, samples=100, seed=0)[0] == cost
        assert policy_cost_profile(model, solution.policy).tolist() == [3.0, 3.0]
        assert bayes_cost(model, solution.policy, Belief(np.array([0.5, 0.5]))) == 3.0

    def test_zero_weight_parameter_is_evaluated_exactly(self):
        # at the point mass on t0, t1's move from s0 to s2 has zero mass
        # and stays in the tree; s2 takes t1's likelihood as its belief,
        # the limit of priors nudged towards uniform
        model = unreached_pruned_branch_model()
        point = Belief(np.array([1.0, 0.0]))
        solution = solve_bayes(model, point)
        assert policy_cost_profile(model, solution.policy)[1] == 3.0
        assert enumerate_cost(model, 1, solution.policy)[0] == 3.0
        assert mc_estimate(model, 1, solution.policy, samples=100, seed=0)[0] == 3.0
        assert policy_cost_profile(model, solution.policy).tolist() == [3.0, 3.0]
        assert policy_cost_profile(model, solution.policy)[0] == 3.0
        assert bayes_cost(model, solution.policy, point) == 3.0
        nudge = 1e-9
        nudged = solve_bayes(model, Belief((1.0 - nudge) * point.weights + nudge / 2))
        np.testing.assert_array_equal(nudged.policy.actions, solution.policy.actions)
        np.testing.assert_allclose(solution.tree.belief, nudged.tree.belief, atol=1e-8)


class TestBayesCost:
    def test_point_mass_equals_single_theta(self, rng):
        model = random_model(rng)
        solution = solve_bayes(model, random_belief(rng, model.n_params))
        mu = Belief.point_mass(model.n_params, 1)
        assert bayes_cost(model, solution.policy, mu) == pytest.approx(
            policy_cost_profile(model, solution.policy)[1], abs=1e-13
        )

    def test_optimal_policy_cost_matches_solver_value(self, rng):
        for _ in range(15):
            model = random_model(rng)
            prior = random_belief(rng, model.n_params)
            solution = solve_bayes(model, prior)
            cost = bayes_cost(model, solution.policy, prior)
            assert cost == pytest.approx(solution.value, abs=1e-12)

    def test_immediate_stop_declaring_theta1_at_even_odds(self, bench_model):
        tree = build_tree(bench_model, seqtest.prior_belief(0.5))
        policy = declare_first_policy(tree)
        cost = bayes_cost(bench_model, policy, seqtest.prior_belief(0.5))
        assert cost == pytest.approx(5.0, abs=1e-12)

    def test_dominance_over_all_policies(self, rng):
        checked = 0
        while checked < 5:
            model = random_model(rng, n_states=2, n_actions=2, horizon=2, n_params=2)
            prior = random_belief(rng, 2)
            tree = build_tree(model, prior)
            if policy_count(tree) > 200:
                continue
            checked += 1
            best = solve_bayes(model, prior).value
            for policy in enumerate_policies(tree):
                assert bayes_cost(model, policy, prior) >= best - 1e-12

    def test_exact_ties_break_to_the_lowest_action_index(self, rng):
        # all-zero costs tie every action exactly
        model = random_model(rng, cost_range=(0.0, 0.0))
        solution = solve_bayes(model, random_belief(rng, model.n_params))
        for index, n, state in decision_nodes(solution.tree):
            assert solution.policy.actions[index] == model.feasible[n][state][0]

    def test_given_tree_is_solved_at_the_given_prior(self):
        # a DAG built at one prior is solved at the asked prior
        model = seqtest.build_model(seqtest.SeqTestConfig(horizon=2))
        tree = build_tree(model, seqtest.prior_belief(0.3))
        solution = solve_bayes(model, seqtest.prior_belief(0.1))
        assert solution.value == pytest.approx(1.0, abs=1e-12)
        assert solution.tree.prior == seqtest.prior_belief(0.1)
        assert solution.tree.dag is tree.dag
        point = solve_bayes(model, seqtest.prior_belief(1.0))
        assert point.tree.dag is tree.dag
        fresh = model._replace()
        assert point.value == solve_bayes(fresh, seqtest.prior_belief(1.0)).value

    def test_dedup_does_not_change_values(self, rng):
        # the merged DAG against the unmerged recursion over histories, then
        # with zeros in the kernels and the prior, where some nodes are
        # reached only under parameters of zero weight
        for _ in range(5):
            model = random_model(rng)
            prior = random_belief(rng, model.n_params)
            value = solve_bayes(model, prior).value
            assert value == pytest.approx(history_value(model, prior), abs=1e-12)
        for _ in range(120):
            model = sparse_model(rng, n_params=int(rng.integers(2, 6)))
            weights = rng.dirichlet(np.ones(model.n_params))
            weights[int(rng.integers(model.n_params))] = 0.0
            prior = Belief(weights / weights.sum())
            value = solve_bayes(model, prior).value
            assert value == pytest.approx(history_value(model, prior), abs=1e-12)

    def test_value_is_concave_in_the_prior(self, rng):
        for _ in range(20):
            model = random_model(rng)
            mu1 = random_belief(rng, model.n_params)
            mu2 = random_belief(rng, model.n_params)
            alpha = float(rng.uniform())
            blend = Belief(alpha * mu1.weights + (1.0 - alpha) * mu2.weights)
            lhs = solve_bayes(model, blend).value
            rhs = (
                alpha * solve_bayes(model, mu1).value
                + (1.0 - alpha) * solve_bayes(model, mu2).value
            )
            assert lhs >= rhs - 1e-10


def _outputs(model, prior) -> list:
    """Everything ``solve_bayes``, ``solve`` and ``certify_saddle`` report
    at ``prior``, every float as its bytes."""
    solution = solve_bayes(model, prior)
    out = [
        solution.value, solution.costs.tobytes(),
        eager_bayes_outputs(model, prior)[0].tobytes(), solution.policy.actions.tobytes(),
    ]
    for mode, gamma in (("entropic", 0.7), ("avar", 0.4), ("robust", None)):
        result = solve(model, mode, prior, gamma)
        out += [
            result.value, result.gap, result.cost_profile.tobytes(),
            result.worst_prior.weights.tobytes(), result.worst_prior_lo.weights.tobytes(),
            result.worst_prior_hi.weights.tobytes(), result.policy.actions.tobytes(),
            [(mu.weights.tobytes(), value) for mu, value in result.trace],
            tuple(certify_saddle(model, result)),
        ]
    return _float_bits(out)


def _float_bits(value):
    """``value`` with every float, also inside lists and tuples, as its bytes."""
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if isinstance(value, (list, tuple)):
        return [_float_bits(v) for v in value]
    return value


class TestBeliefDagCache:
    def test_every_prior_shares_one_dag(self, rng):
        model = random_model(rng, n_params=3)
        a = solve_bayes(model, random_belief(rng, 3))
        b = solve_bayes(model, random_belief(rng, 3))
        point = solve_bayes(model, Belief.point_mass(3, 1))
        assert a.tree.dag is b.tree.dag is point.tree.dag is model.belief_dag
        assert a.tree.epochs is b.tree.epochs is model.belief_dag.epochs
        assert a.tree.offsets is b.tree.offsets is model.belief_dag.offsets
        assert a.tree.belief is not b.tree.belief
        assert not np.array_equal(a.tree.belief, b.tree.belief)
        assert a.tree.belief.shape == (len(a.tree), 3)

    def test_view_normalizes_beliefs_on_first_read(self, rng):
        # the CLI builds the DAG and drops the view; a view that only
        # evaluates a given policy needs no beliefs either
        model = random_model(rng, n_params=3)
        prior = random_belief(rng, 3)
        tree = build_tree(model, prior)
        solution = solve_bayes(model, prior)
        policy_cost_profile(model, DeterministicPolicy(tree, solution.policy.actions))
        assert "belief" not in vars(tree)
        assert np.array_equal(tree.belief, solution.tree.belief)
        assert tree.belief is tree.belief

    def test_cold_robust_solve_builds_once(self, rng, monkeypatch):
        builds = []

        def counted(*args, **kwargs):
            builds.append(args)
            return build_tree(*args, **kwargs)

        monkeypatch.setattr(bayes, "build_tree", counted)
        model = random_model(rng, n_params=3)
        result = solve(model, "robust", Belief.uniform(3))
        assert len(builds) == 1
        assert len(result.trace) > 1

    def test_warm_cache_gives_bitwise_identical_results(self, rng):
        for model in (
            random_model(rng, n_params=3, horizon=2),
            seqtest.build_model(seqtest.SeqTestConfig(horizon=2)),
        ):
            k = model.n_params
            warm = model._replace()
            # other priors and other supports first
            for w in ([1.0] + [0.0] * (k - 1), [0.5, 0.5] + [0.0] * (k - 2)):
                solve_bayes(warm, Belief(np.array(w)))
            solve(warm, "robust", Belief.uniform(k))
            assert warm.belief_dag is not None
            prior = random_belief(rng, k)
            assert _outputs(warm, prior) == _outputs(model._replace(), prior)

    def test_solved_model_is_freed_by_its_last_reference(self):
        # a figure sweep, an outer solve and its certificate leave on the
        # DAG its read-only arrays, a memo of (value, costs, pairs) entries,
        # keyed by prior bytes, and the segment planes of each two-parameter
        # support, none of which holds a model
        gc.disable()
        try:
            config = parse_config((CONFIG_DIR / "figure_avar.cfg").read_text())
            model = config.model
            ref = weakref.ref(model)
            _certified_figure_rows(config)
            result = solve(model, "entropic", seqtest.prior_belief(0.3), 0.5)
            certify_saddle(model, result)
            dag = model.belief_dag
            assert not hasattr(dag, "__dict__")
            assert type(dag.solves) is dict and 0 < len(dag.solves) <= bayes.SOLVE_MEMO
            # the certificate's solve at the returned prior was the last read
            assert list(dag.solves)[-1] == result.worst_prior.weights.tobytes()
            for key, (value, costs, pairs) in dag.solves.items():
                assert type(key) is bytes and type(value) is float and type(pairs) is tuple
                assert all(type(a) is np.ndarray and not a.flags.writeable for a in (costs, *pairs))
            # the evaluation memo: read-only costs by the bytes of the pairs,
            # the certificate's policy last
            assert type(dag.evals) is dict and 0 < len(dag.evals) <= bayes.SOLVE_MEMO
            assert list(dag.evals)[-1] == pairs_key(result.policy.pairs)
            for key, costs in dag.evals.items():
                assert type(key) is bytes and type(costs) is np.ndarray
                assert not costs.flags.writeable
            views = [result.policy.tree, solve_bayes(model, seqtest.prior_belief(0.7)).tree]
            assert all(view.dag is dag and view.epochs is dag.epochs for view in views)
            for n, epoch in enumerate(dag.epochs[:-1]):
                plan = (epoch.first_pair, epoch.live)
                assert not any(a.flags.writeable for a in plan)
                has_child = (epoch.child >= 0)[:, None, :]
                kernel = dag.kernels[n][epoch.pair_cell]
                assert np.array_equal(epoch.live, (kernel > 0.0) & has_child)
                nodes = np.arange(epoch.state.size)
                assert np.array_equal(epoch.pair_node[epoch.first_pair], nodes)
            tables = (dag.kernels, dag.stages, dag.terminal, *dag.root_step)
            assert not any(a.flags.writeable for a in tables)
            # the entropic solve's segment planes: read-only (costs, pairs)
            # and their read-only cut matrix only
            assert type(dag.segments) is dict and list(dag.segments) == [(0, 1)]
            for planes, cuts in dag.segments.values():
                assert type(planes) is tuple and len(planes) == 3
                assert type(cuts) is np.ndarray and cuts.shape == (3, 2)
                assert not cuts.flags.writeable
                for costs, pairs in planes:
                    assert type(pairs) is tuple
                    assert all(
                        type(a) is np.ndarray and not a.flags.writeable for a in (costs, *pairs)
                    )
            del config, model, result, dag, views
            assert ref() is None
        finally:
            gc.enable()

    def test_node_cap_is_checked_when_the_dag_is_built(self, bench_model):
        # the cap is a build-time guard; a cached DAG is read without one
        model = bench_model._replace()
        with pytest.raises(TreeSizeLimitError, match="5"):
            build_tree(model, seqtest.prior_belief(0.3), node_cap=5)
        assert model.belief_dag is None  # a build that raises caches nothing
        assert len(solve_bayes(model, seqtest.prior_belief(0.3)).tree) == 7
        dag = model.belief_dag
        with pytest.raises(TreeSizeLimitError, match="6"):
            build_tree(model, seqtest.prior_belief(0.6), node_cap=6)
        assert model.belief_dag is dag
        assert len(build_tree(model, seqtest.prior_belief(0.6), node_cap=7)) == 7


class TestSolveMemo:
    """``solve_bayes`` keeps the DAG's last ``SOLVE_MEMO`` solves by the bits
    of the prior's weights, and a hit returns them without a backward pass."""

    def test_a_hit_gives_the_bytes_of_a_fresh_solve(self, monkeypatch):
        rng = np.random.default_rng(1919)
        passes = counted_passes(monkeypatch)
        for _ in range(40):
            model = sparse_model(rng, n_params=int(rng.integers(2, 6)))
            weights = rng.dirichlet(np.ones(model.n_params))
            weights[int(rng.integers(model.n_params))] = 0.0
            prior = Belief(weights / weights.sum())
            warm = model._replace()
            first = _outputs(warm, prior)
            before = len(passes)
            assert _outputs(warm, prior) == first  # every solve a hit
            assert len(passes) == before
            assert _outputs(model._replace(), prior) == first
            assert len(passes) > before

    def test_least_recently_used_solve_is_dropped_first(self, rng, monkeypatch):
        model = random_model(rng, n_params=3)
        priors = [random_belief(rng, 3) for _ in range(bayes.SOLVE_MEMO + 1)]
        for prior in priors[:-1]:
            solve_bayes(model, prior)
        solve_bayes(model, priors[0])  # read again: now the most recent
        passes = counted_passes(monkeypatch)
        solve_bayes(model, priors[-1])  # the 65th prior drops the least recent, priors[1]
        assert len(model.belief_dag.solves) == bayes.SOLVE_MEMO
        solve_bayes(model, priors[0])
        assert [mu.weights.tobytes() for mu in passes] == [priors[-1].weights.tobytes()]
        again = solve_bayes(model, priors[1])
        assert [mu.weights.tobytes() for mu in passes] == [
            priors[-1].weights.tobytes(), priors[1].weights.tobytes()
        ]
        fresh = solve_bayes(model._replace(), priors[1])
        assert again.value == fresh.value
        assert again.costs.tobytes() == fresh.costs.tobytes()

    def test_costs_and_pairs_are_read_only(self, rng):
        model = random_model(rng, n_params=3)
        prior = random_belief(rng, 3)
        for solution in (solve_bayes(model, prior), solve_bayes(model, prior)):
            with pytest.raises(ValueError, match="read-only"):
                solution.costs[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                solution.policy.pairs[0][0] = 0

    def test_figure_sweeps_run_one_pass_per_distinct_prior(self, monkeypatch):
        # the 169 distinct (model, prior) bits of 651 Bayes solves before the
        # two-parameter entropic solves started from their segment planes
        passes = counted_passes(monkeypatch)
        for name in ("figure_avar", "figure_entropic"):
            _figure_rows(parse_config((CONFIG_DIR / f"{name}.cfg").read_text()))
        assert len(passes) == 57

    def test_certified_figure_sweeps_pay_once_per_policy(self, monkeypatch):
        # 177 certificates evaluate 4 distinct policies (177 passes before
        # the evaluation memo); a warm repeat of the sweep runs no pass
        passes = counted_passes(monkeypatch)
        configs = [
            parse_config((CONFIG_DIR / f"{name}.cfg").read_text())
            for name in ("figure_avar", "figure_entropic")
        ]
        for config in configs:
            _certified_figure_rows(config)
        assert (len(passes), len(passes.evaluations)) == (57, 4)
        for config in configs:
            _certified_figure_rows(config)
        assert (len(passes), len(passes.evaluations)) == (57, 4)


def _certified_figure_rows(config) -> None:
    """Every row of a figure config, as ``cli._figure_rows`` solves it, with
    each outer solve certified."""
    for mu0 in sorted(config.prior_sweep):
        prior = Belief(np.array([mu0, 1.0 - mu0]))
        for gamma in sorted(config.gamma_sweep):
            if gamma == 0.0:
                solve_bayes(config.model, prior)
            else:
                result = solve(config.model, _outer_mode(config.mode), prior, gamma)
                certify_saddle(config.model, result)


class TestEvaluationMemo:
    """``policy_cost_profile`` keeps the DAG's last ``SOLVE_MEMO``
    evaluations by the bytes of the policy's pairs, and a hit returns them
    without a backward pass."""

    def test_a_hit_gives_the_bytes_of_a_fresh_pass(self, monkeypatch):
        rng = np.random.default_rng(2222)
        passes = counted_passes(monkeypatch)
        for _ in range(40):
            model = sparse_model(rng, n_params=int(rng.integers(2, 6)))
            solution = solve_bayes(model, random_belief(rng, model.n_params))
            tree = solution.tree
            # a policy given by its actions, so its pairs are found afresh
            given = DeterministicPolicy(tree, solution.policy.actions)
            first = policy_cost_profile(model, given)
            assert len(passes.evaluations) == 1
            again = policy_cost_profile(model, DeterministicPolicy(tree, given.actions))
            assert again is first and len(passes.evaluations) == 1
            fresh = bayes._backward(model, tree, given.pairs)[0]
            assert first.tobytes() == again.tobytes() == fresh.tobytes()
            assert bayes_cost(model, given, tree.prior) == solution.value
            passes.evaluations.clear()

    def test_least_recently_used_evaluation_is_dropped_first(self, monkeypatch):
        rng = np.random.default_rng(65)
        model = random_model(rng, n_states=3, n_actions=3, horizon=2, full_feasible=True)
        tree = build_tree(model, Belief.uniform(model.n_params))
        nodes = list(decision_nodes(tree))
        policies, keys = [], set()
        while len(policies) < bayes.SOLVE_MEMO + 1:
            actions = {i: int(rng.integers(3)) for i, _, _ in nodes}
            policy = policy_from(tree, actions)
            if pairs_key(policy.pairs) not in keys:
                keys.add(pairs_key(policy.pairs))
                policies.append(policy)
        for policy in policies[:-1]:
            policy_cost_profile(model, policy)
        policy_cost_profile(model, policies[0])  # read again: now the most recent
        passes = counted_passes(monkeypatch)
        # the 65th policy drops the least recent, policies[1]
        policy_cost_profile(model, policies[-1])
        assert len(tree.dag.evals) == bayes.SOLVE_MEMO
        policy_cost_profile(model, policies[0])
        assert passes.evaluations == [pairs_key(policies[-1].pairs)]
        again = policy_cost_profile(model, policies[1])
        assert passes.evaluations == [pairs_key(policies[-1].pairs), pairs_key(policies[1].pairs)]
        fresh = bayes._backward(model, tree, policies[1].pairs)[0]
        assert again.tobytes() == fresh.tobytes()
        assert passes == []  # no choosing pass

    def test_costs_are_read_only(self, rng):
        model = random_model(rng, n_params=3)
        solution = solve_bayes(model, random_belief(rng, 3))
        for _ in range(2):  # a miss, then a hit
            costs = policy_cost_profile(model, solution.policy)
            with pytest.raises(ValueError, match="read-only"):
                costs[0] = 0.0

    def test_a_policy_that_does_not_fit_raises_before_the_lookup(self, bench_model):
        tree = build_tree(bench_model, seqtest.prior_belief(0.5))
        policy = declare_first_policy(tree)
        policy_cost_profile(bench_model, policy)
        actions = policy.actions.copy()
        actions[tree.dag.root_of[seqtest.STATES.index("start")]] = -1
        with pytest.raises(PolicyTreeMismatchError, match="node"):
            policy_cost_profile(bench_model, DeterministicPolicy(tree=tree, actions=actions))
