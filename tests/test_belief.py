import numpy as np
import pytest
from helpers import random_belief, random_model
from hypothesis import given, settings
from hypothesis import strategies as st

from ambmdp import seqtest
from ambmdp.belief import PredictiveDistribution, initial_posterior, predictive, update_posterior
from ambmdp.errors import InfeasibleActionError
from ambmdp.model import Belief, ParameterSet, StatisticalMDP

A_CONTINUE = seqtest.ACTIONS.index("continue")
X_START = seqtest.STATES.index("start")
X_OBS1 = seqtest.STATES.index("obs1")


class TestInitialPosterior:
    def test_identical_likelihood_leaves_prior_unchanged(self, rng):
        model = random_model(rng, n_params=3)
        flat = StatisticalMDP(
            horizon=model.horizon,
            states=model.states,
            actions=model.actions,
            params=model.params,
            feasible=model.feasible,
            initial_kernel=np.tile(model.initial_kernel[:1], (3, 1)),
            transition=model.transition,
            stage_cost=model.stage_cost,
            terminal_cost=model.terminal_cost,
        )
        prior = Belief.uniform(3)
        out = initial_posterior(flat, prior, 0)
        np.testing.assert_allclose(out.weights, prior.weights, atol=1e-15)

    def test_point_mass_prior_is_absorbing(self, rng):
        model = random_model(rng, n_params=2)
        prior = Belief.point_mass(2, 0)
        assert initial_posterior(model, prior, 1) == prior

    def test_direct_ratio(self):
        # likelihoods 0.2 and 0.4 under a uniform prior: posterior 1:2
        params = ParameterSet(("t0", "t1"))
        model = StatisticalMDP(
            horizon=1,
            states=("s0", "s1"),
            actions=("a0",),
            params=params,
            feasible=(((0,), (0,)),),
            initial_kernel=np.array([[0.2, 0.8], [0.4, 0.6]]),
            transition=np.full((1, 2, 2, 1, 2), 0.5),
            stage_cost=np.zeros((1, 2, 2, 1)),
            terminal_cost=np.zeros((2, 2)),
        )
        out = initial_posterior(model, Belief.uniform(2), 0)
        np.testing.assert_allclose(out.weights, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)

    def test_zero_mass_observation_returns_prior(self):
        params = ParameterSet(("t0", "t1"))
        model = StatisticalMDP(
            horizon=1,
            states=("s0", "s1"),
            actions=("a0",),
            params=params,
            feasible=(((0,), (0,)),),
            initial_kernel=np.array([[0.0, 1.0], [0.0, 1.0]]),
            transition=np.full((1, 2, 2, 1, 2), 0.5),
            stage_cost=np.zeros((1, 2, 2, 1)),
            terminal_cost=np.zeros((2, 2)),
        )
        prior = Belief(np.array([0.3, 0.7]))
        assert initial_posterior(model, prior, 0) == prior


class TestUpdatePosterior:
    def test_success_update_matches_closed_form(self, bench_model):
        for mu in np.linspace(0.0, 1.0, 21):
            belief = seqtest.prior_belief(mu)
            out = update_posterior(bench_model, 0, X_START, belief, A_CONTINUE, X_OBS1)
            assert out.weights[0] == pytest.approx(mu / (2.0 - mu), abs=1e-14)

    def test_success_update_at_half(self, bench_model):
        belief = seqtest.prior_belief(0.5)
        out = update_posterior(bench_model, 0, X_START, belief, A_CONTINUE, X_OBS1)
        assert out.weights[0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_point_mass_is_fixed(self, bench_model):
        belief = seqtest.prior_belief(1.0)
        out = update_posterior(bench_model, 0, X_START, belief, A_CONTINUE, X_OBS1)
        assert out == belief

    def test_infeasible_action_is_named(self, bench_model):
        stopped = seqtest.STATES.index("stopped")
        with pytest.raises(InfeasibleActionError) as err:
            update_posterior(
                bench_model, 0, stopped, seqtest.prior_belief(0.5), 0, stopped
            )
        message = str(err.value)
        assert "epoch 0" in message and "stopped" in message and "declare_theta1" in message

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, scale):
        # multiplying every kernel entry by a constant cancels in the ratio
        rng = np.random.default_rng(7)
        model = random_model(rng, n_states=3, n_actions=2, horizon=1, n_params=3)
        scaled = StatisticalMDP(
            horizon=model.horizon,
            states=model.states,
            actions=model.actions,
            params=model.params,
            feasible=model.feasible,
            initial_kernel=model.initial_kernel,
            transition=model.transition * scale,
            stage_cost=model.stage_cost,
            terminal_cost=model.terminal_cost,
        )
        belief = random_belief(rng, 3)
        base = update_posterior(model, 0, 0, belief, model.feasible[0][0][0], 1)
        alt = update_posterior(scaled, 0, 0, belief, model.feasible[0][0][0], 1)
        np.testing.assert_allclose(alt.weights, base.weights, atol=1e-12)

    def test_composition_matches_product_likelihood(self, rng):
        for _ in range(20):
            model = random_model(rng, horizon=2, full_feasible=True)
            belief = random_belief(rng, model.n_params)
            a0, a1 = model.feasible[0][0][0], model.feasible[1][1][0]
            step1 = update_posterior(model, 0, 0, belief, a0, 1)
            step2 = update_posterior(model, 1, 1, step1, a1, 0)
            product = (
                model.transition[0, :, 0, a0, 1]
                * model.transition[1, :, 1, a1, 0]
                * belief.weights
            )
            np.testing.assert_allclose(
                step2.weights, product / product.sum(), atol=1e-13
            )


class TestPredictive:
    def test_success_mass_matches_closed_form(self, bench_model):
        for mu in np.linspace(0.0, 1.0, 21):
            pred = predictive(
                bench_model, 0, X_START, seqtest.prior_belief(mu), A_CONTINUE
            )
            expected = mu / 3.0 + 2.0 * (1.0 - mu) / 3.0
            assert pred.masses[X_OBS1] == pytest.approx(expected, abs=1e-15)

    def test_point_mass_belief_reduces_to_kernel_row(self, rng):
        model = random_model(rng, n_params=2, horizon=1, full_feasible=True)
        pred = predictive(model, 0, 0, Belief.point_mass(2, 1), 0)
        np.testing.assert_allclose(
            pred.masses, model.transition[0, 1, 0, 0], atol=1e-15
        )

    def test_even_mixture_of_disjoint_rows(self):
        # under t0 the next state is s0 surely, under t1 it is s1 surely;
        # the even mixture splits the mass and each outcome identifies theta
        params = ParameterSet(("t0", "t1"))
        transition = np.zeros((1, 2, 2, 1, 2))
        transition[0, 0, :, 0] = [1.0, 0.0]
        transition[0, 1, :, 0] = [0.0, 1.0]
        model = StatisticalMDP(
            horizon=1,
            states=("s0", "s1"),
            actions=("a0",),
            params=params,
            feasible=(((0,), (0,)),),
            initial_kernel=np.full((2, 2), 0.5),
            transition=transition,
            stage_cost=np.zeros((1, 2, 2, 1)),
            terminal_cost=np.zeros((2, 2)),
        )
        pred = predictive(model, 0, 0, Belief.uniform(2), 0)
        np.testing.assert_allclose(pred.masses, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(pred.posteriors[0].weights, [1.0, 0.0])
        np.testing.assert_allclose(pred.posteriors[1].weights, [0.0, 1.0])

    @pytest.mark.parametrize(
        "masses, posteriors, message",
        [([1.5, -0.5], 2, "non-negative and finite"),
         ([0.5, np.inf], 2, "non-negative and finite"),
         ([0.5, 0.4], 2, r"sum to 0\.9, not 1$"),
         ([0.5, 0.5], 1, "one posterior belief required")],
        ids=("negative", "infinite", "sum", "posteriors"),
    )
    def test_distribution_refuses(self, masses, posteriors, message):
        with pytest.raises(ValueError, match=message):
            PredictiveDistribution(np.array(masses), (Belief.uniform(2),) * posteriors)

    def test_martingale_property(self, rng):
        # posterior mixture under the predictive equals the prior belief
        for _ in range(100):
            model = random_model(rng)
            belief = random_belief(rng, model.n_params)
            x = int(rng.integers(model.n_states))
            n = int(rng.integers(model.horizon))
            a = model.feasible[n][x][int(rng.integers(len(model.feasible[n][x])))]
            pred = predictive(model, n, x, belief, a)
            mixed = sum(
                pred.masses[xn] * pred.posteriors[xn].weights
                for xn in range(model.n_states)
            )
            np.testing.assert_allclose(mixed, belief.weights, atol=1e-12)
