import dataclasses
import gc
import weakref

import numpy as np
import pytest
from helpers import (
    decision_nodes,
    enumerate_policies,
    policy_count,
    policy_from,
    random_belief,
    random_model,
)
from oracles import history_value

from ambmdp import seqtest
from ambmdp.ambiguity import certify_saddle, solve
from ambmdp.bayes import (
    DeterministicPolicy,
    bayes_cost,
    build_tree,
    evaluate_policy,
    policy_cost_profile,
    solve_bayes,
)
from ambmdp.belief import predictive, update_posterior
from ambmdp import bayes
from ambmdp.errors import PolicyTreeMismatchError, TreeSizeLimitError
from ambmdp.model import Belief, ParameterSet, StatisticalMDP
from ambmdp.oracle import enumerate_cost, mc_estimate

A_DECLARE_1 = seqtest.ACTIONS.index("declare_theta1")
A_CONTINUE = seqtest.ACTIONS.index("continue")
X_STOPPED = seqtest.STATES.index("stopped")


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
    return predictive(tree.model, n, state, belief, int(epoch.pair_action[p])).masses


def branches(tree):
    """(epoch, node index within it, action, next state, child index within
    the next epoch, mass) for every unpruned branch."""
    for n, epoch in enumerate(tree.epochs):
        for p, x in zip(*np.nonzero(epoch.child >= 0)):
            yield (
                n, int(epoch.pair_node[p]), int(epoch.pair_action[p]), int(x),
                int(epoch.child[p, x]), float(pair_masses(tree, n, p)[x]),
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
        drifted = dataclasses.replace(model, transition=model.transition * (1.0 + 1e-9))
        tree = build_tree(drifted, prior)
        assert len(tree) == len(build_tree(model, prior))
        for n, epoch in enumerate(tree.epochs[:-1]):
            for p, children in enumerate(epoch.child):
                masses = pair_masses(tree, n, p)[children >= 0]
                assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        far = dataclasses.replace(model, transition=model.transition * (1.0 + 1e-3))
        with pytest.raises(ValueError, match="row sums are off"):
            build_tree(far, prior)

    def test_node_cap_guard(self, bench_model):
        with pytest.raises(TreeSizeLimitError, match="5"):
            build_tree(bench_model, seqtest.prior_belief(0.3), node_cap=5)

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
        # action has a pair carrying exactly the model's kernel rows and
        # stage costs, every positive predictive mass a child, and every
        # zero mass a pruned branch
        for _ in range(10):
            model = random_model(rng, n_params=int(rng.integers(2, 6)))
            tree = build_tree(model, random_belief(rng, model.n_params))
            for n, epoch in enumerate(tree.epochs[:-1]):
                pairs = list(zip(epoch.pair_node.tolist(), epoch.pair_action.tolist()))
                expected_pairs = [
                    (i, a) for i, x in enumerate(epoch.state) for a in model.feasible[n][x]
                ]
                assert pairs == expected_pairs
                for p, (i, action) in enumerate(pairs):
                    state = int(epoch.state[i])
                    belief = Belief(tree.belief[tree.offsets[n] + i])
                    pred = predictive(model, n, state, belief, action)
                    kept = pred.masses > 0.0
                    np.testing.assert_array_equal(
                        epoch.kernel[p], model.transition[n, :, state, action]
                    )
                    np.testing.assert_array_equal(
                        epoch.stage[p], model.stage_cost[n, :, state, action]
                    )
                    np.testing.assert_array_equal(epoch.child[p] >= 0, kept)
                    for x in np.flatnonzero(kept):
                        child = epoch.child[p, x]
                        np.testing.assert_allclose(
                            tree.belief[tree.offsets[n + 1] + child],
                            pred.posteriors[x].weights,
                            atol=1e-12,
                        )

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
        solution = solve_bayes(model, random_belief(rng, model.n_params))
        tree = solution.tree
        for index, n, state in decision_nodes(tree):
            epoch = tree.epochs[n]
            node = index - tree.offsets[n]
            belief = Belief(tree.belief[index])
            best = np.inf
            for action in model.feasible[n][state]:
                pred = predictive(model, n, state, belief, action)
                q = float(belief.weights @ model.stage_cost[n, :, state, action])
                (p,) = np.flatnonzero((epoch.pair_node == node) & (epoch.pair_action == action))
                for x_next in np.flatnonzero(epoch.child[p] >= 0):
                    mass = pred.masses[x_next]
                    child = tree.offsets[n + 1] + epoch.child[p, x_next]
                    q += mass * solution.node_values[child]
                best = min(best, q)
            assert solution.node_values[index] == pytest.approx(best, abs=1e-12)

    def test_value_is_root_mixture(self, rng):
        model = random_model(rng)
        prior = random_belief(rng, model.n_params)
        solution = solve_bayes(model, prior)
        masses = prior.weights @ model.initial_kernel
        root_of = solution.tree.dag.root_of
        mixture = sum(
            masses[x] * solution.node_values[root_of[x]] for x in np.flatnonzero(root_of >= 0)
        )
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

    return dataclasses.replace(
        model,
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
                assert solution.costs[theta] == evaluate_policy(model, theta, solution.policy)
                exact, _ = enumerate_cost(model, theta, solution.policy)
                assert solution.costs[theta] == pytest.approx(exact, abs=1e-12)
            assert solution.value == pytest.approx(
                float(prior.weights @ solution.costs), abs=1e-12
            )
        assert zero_mass_nodes > 0


class TestEvaluatePolicy:
    def test_immediate_declaration_costs(self, bench_model):
        tree = build_tree(bench_model, seqtest.prior_belief(0.5))
        policy = declare_first_policy(tree)
        assert evaluate_policy(bench_model, 0, policy) == pytest.approx(0.0, abs=1e-15)
        assert evaluate_policy(bench_model, 1, policy) == pytest.approx(10.0, abs=1e-12)

    def test_zero_cost_model(self, rng):
        model = random_model(rng, cost_range=(0.0, 0.0))
        solution = solve_bayes(model, random_belief(rng, model.n_params))
        for theta in range(model.n_params):
            assert evaluate_policy(model, theta, solution.policy) == pytest.approx(
                0.0, abs=1e-15
            )

    def test_model_mismatch_raises(self, rng, bench_model):
        other = random_model(rng)
        solution = solve_bayes(other, random_belief(rng, other.n_params))
        with pytest.raises(PolicyTreeMismatchError):
            evaluate_policy(bench_model, 0, solution.policy)

    def test_policy_must_cover_every_decision_node(self, bench_model):
        tree = build_tree(bench_model, seqtest.prior_belief(0.5))
        actions = declare_first_policy(tree).actions.copy()
        actions[tree.dag.root_of[seqtest.STATES.index("start")]] = -1
        with pytest.raises(PolicyTreeMismatchError, match="node"):
            evaluate_policy(bench_model, 0, DeterministicPolicy(tree=tree, actions=actions))
        with pytest.raises(PolicyTreeMismatchError):
            evaluate_policy(bench_model, 0, DeterministicPolicy(tree=tree, actions=actions[1:]))

    def test_pruned_branch_theta_never_reaches_is_not_an_error(self):
        model = unreached_pruned_branch_model()
        solution = solve_bayes(model, Belief(np.array([0.5, 0.5])))
        for theta, cost in ((0, 3.0), (1, 3.0)):
            assert evaluate_policy(model, theta, solution.policy) == cost
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
        assert evaluate_policy(model, 1, solution.policy) == 3.0
        assert enumerate_cost(model, 1, solution.policy)[0] == 3.0
        assert mc_estimate(model, 1, solution.policy, samples=100, seed=0)[0] == 3.0
        assert policy_cost_profile(model, solution.policy).tolist() == [3.0, 3.0]
        assert evaluate_policy(model, 0, solution.policy) == 3.0
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
            evaluate_policy(model, 1, solution.policy), abs=1e-13
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
        fresh = dataclasses.replace(model)
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
    at ``prior``, as plain values and bytes."""
    solution = solve_bayes(model, prior)
    out = [
        solution.value, solution.costs.tobytes(), solution.node_values.tobytes(),
        solution.policy.actions.tobytes(),
    ]
    for mode, gamma in (("entropic", 0.7), ("avar", 0.4), ("robust", None)):
        result = solve(model, mode, prior, gamma)
        out += [
            result.value, result.gap, result.cost_profile.tobytes(),
            result.worst_prior.weights.tobytes(), result.worst_prior_lo.weights.tobytes(),
            result.worst_prior_hi.weights.tobytes(), result.policy.actions.tobytes(),
            [(mu.weights.tobytes(), value) for mu, value in result.trace],
            dataclasses.astuple(certify_saddle(model, result)),
        ]
    return out


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
        assert a.tree.belief.shape == (len(model.belief_dag), 3)

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
            warm = dataclasses.replace(model)
            # other priors and other supports first
            for w in ([1.0] + [0.0] * (k - 1), [0.5, 0.5] + [0.0] * (k - 2)):
                solve_bayes(warm, Belief(np.array(w)))
            solve(warm, "robust", Belief.uniform(k))
            assert warm.belief_dag is not None
            prior = random_belief(rng, k)
            assert _outputs(warm, prior) == _outputs(dataclasses.replace(model), prior)

    def test_solved_model_is_freed_by_its_last_reference(self):
        gc.disable()
        try:
            model = seqtest.build_model(seqtest.SeqTestConfig(horizon=2))
            ref = weakref.ref(model)
            result = solve(model, "entropic", seqtest.prior_belief(0.3), 0.5)
            certify_saddle(model, result)
            assert model.belief_dag is not None
            del model, result
            assert ref() is None
        finally:
            gc.enable()

    def test_node_cap_is_checked_when_the_dag_is_built(self, bench_model):
        # the cap is a build-time guard; a cached DAG is read without one
        model = dataclasses.replace(bench_model)
        with pytest.raises(TreeSizeLimitError, match="5"):
            build_tree(model, seqtest.prior_belief(0.3), node_cap=5)
        assert model.belief_dag is None  # a build that raises caches nothing
        assert len(solve_bayes(model, seqtest.prior_belief(0.3)).tree) == 7
        dag = model.belief_dag
        with pytest.raises(TreeSizeLimitError, match="6"):
            build_tree(model, seqtest.prior_belief(0.6), node_cap=6)
        assert model.belief_dag is dag
        assert len(build_tree(model, seqtest.prior_belief(0.6), node_cap=7)) == 7
