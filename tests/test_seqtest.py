import numpy as np
import pytest

from ambmdp import seqtest
from ambmdp.bayes import solve_bayes
from ambmdp.belief import update_posterior
from ambmdp.model import validate

A_CONTINUE = seqtest.ACTIONS.index("continue")
A_DECLARE_1 = seqtest.ACTIONS.index("declare_theta1")
A_DECLARE_2 = seqtest.ACTIONS.index("declare_theta2")
X_START = seqtest.STATES.index("start")
X_OBS0 = seqtest.STATES.index("obs0")
X_OBS1 = seqtest.STATES.index("obs1")


class TestConfig:
    def test_default_costs_and_rates(self):
        config = seqtest.DEFAULT_CONFIG
        assert config.observation_cost == 1.0
        assert config.error_cost == 10.0
        assert config.p_low == pytest.approx(1.0 / 3.0)
        assert config.p_high == pytest.approx(2.0 / 3.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="p_low"):
            seqtest.SeqTestConfig(p_low=0.0)
        with pytest.raises(ValueError, match="error_cost"):
            seqtest.SeqTestConfig(error_cost=-1.0)


class TestBuildModel:
    def test_model_is_valid(self):
        for horizon in (0, 1, 3):
            model = seqtest.build_model(seqtest.SeqTestConfig(horizon=horizon))
            assert validate(model) == []
            assert model.horizon == horizon + 1

    def test_final_epoch_forces_a_declaration(self, bench_model):
        last = bench_model.horizon - 1
        for x in (X_START, X_OBS0, X_OBS1):
            assert bench_model.feasible[last][x] == (A_DECLARE_1, A_DECLARE_2)

    def test_stopping_cost_is_the_declaration_mixture(self, bench_model):
        # Bayes-expected declaration cost must reproduce min(10 mu, 10(1-mu))
        for mu in np.linspace(0.0, 1.0, 11):
            belief = seqtest.prior_belief(mu)
            declare_costs = [
                float(belief.weights @ bench_model.stage_cost[0, :, X_START, a])
                for a in (A_DECLARE_1, A_DECLARE_2)
            ]
            assert min(declare_costs) == pytest.approx(
                seqtest.terminal_decision_cost(mu), abs=1e-12
            )

    def test_success_and_failure_updates(self, bench_model):
        for mu in np.linspace(0.0, 1.0, 21):
            belief = seqtest.prior_belief(mu)
            up = update_posterior(bench_model, 0, X_START, belief, A_CONTINUE, X_OBS1)
            down = update_posterior(bench_model, 0, X_START, belief, A_CONTINUE, X_OBS0)
            assert up.weights[0] == pytest.approx(mu / (2.0 - mu), abs=1e-14)
            assert down.weights[0] == pytest.approx(2.0 * mu / (1.0 + mu), abs=1e-14)
            assert up.weights[0] == pytest.approx(
                seqtest.success_posterior(mu), abs=1e-14
            )
            assert down.weights[0] == pytest.approx(
                seqtest.failure_posterior(mu), abs=1e-14
            )


class TestClosedForms:
    def test_terminal_decision_cost_points(self):
        assert seqtest.terminal_decision_cost(0.0) == 0.0
        assert seqtest.terminal_decision_cost(0.5) == pytest.approx(5.0)
        assert seqtest.terminal_decision_cost(0.8) == pytest.approx(2.0)

    def test_optimal_value_pieces(self):
        assert seqtest.optimal_value(0.3) == pytest.approx(3.0)
        assert seqtest.optimal_value(0.5) == pytest.approx(13.0 / 3.0)
        assert seqtest.optimal_value(13.0 / 30.0) == pytest.approx(13.0 / 3.0)
        assert seqtest.optimal_value(0.9) == pytest.approx(1.0)

    def test_symmetry(self):
        for mu in np.linspace(0.0, 1.0, 101):
            assert seqtest.terminal_decision_cost(mu) == pytest.approx(
                seqtest.terminal_decision_cost(1.0 - mu), abs=1e-12
            )
            assert seqtest.optimal_value(mu) == pytest.approx(
                seqtest.optimal_value(1.0 - mu), abs=1e-12
            )

    def test_range_validation(self):
        for func in (
            seqtest.terminal_decision_cost,
            seqtest.optimal_value,
            seqtest.optimal_first_action,
        ):
            with pytest.raises(ValueError):
                func(-0.1)
            with pytest.raises(ValueError):
                func(1.1)


class TestAvarWorstPriorInterval:
    def test_regime_one_point(self):
        lo, hi = seqtest.avar_worst_prior_interval(0.2, 0.1)
        assert lo == hi == pytest.approx(0.125)

    def test_regime_two_interval(self):
        lo, hi = seqtest.avar_worst_prior_interval(0.8, 0.1)
        assert lo == pytest.approx(13.0 / 30.0)
        assert hi == pytest.approx(0.5)

    def test_regime_three_full_plateau(self):
        lo, hi = seqtest.avar_worst_prior_interval(0.95, 0.1)
        assert lo == pytest.approx(13.0 / 30.0)
        assert hi == pytest.approx(17.0 / 30.0)

    def test_regime_boundaries_are_continuous(self):
        mu0 = 0.2
        for boundary in (1.0 - mu0 / (13.0 / 30.0), 1.0 - mu0 / (17.0 / 30.0)):
            below = seqtest.avar_worst_prior_interval(boundary - 1e-9, mu0)
            above = seqtest.avar_worst_prior_interval(boundary + 1e-9, mu0)
            assert below[1] == pytest.approx(above[1], abs=1e-6)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            seqtest.avar_worst_prior_interval(0.0, 0.1)
        with pytest.raises(ValueError, match="mu0"):
            seqtest.avar_worst_prior_interval(0.5, 0.7)


class TestOptimalFirstAction:
    def test_reference_points(self):
        assert seqtest.optimal_first_action(0.5) == "continue"
        assert seqtest.optimal_first_action(0.1) == "declare_theta2"
        assert seqtest.optimal_first_action(13.0 / 30.0) == "declare_theta2"
        assert seqtest.optimal_first_action(0.9) == "declare_theta1"

    def test_solver_agrees_away_from_breakpoints(self, bench_model):
        for mu in np.linspace(0.001, 0.999, 199):
            if min(abs(mu - 13.0 / 30.0), abs(mu - 17.0 / 30.0)) <= 1e-9:
                continue
            solution = solve_bayes(bench_model, seqtest.prior_belief(mu))
            root = solution.tree.dag.root_of[seqtest.STATES.index("start")]
            action = seqtest.ACTIONS[solution.policy.actions[root]]
            assert action == seqtest.optimal_first_action(mu), f"mu={mu}"


class TestGenericSolverAgreement:
    def test_first_decision_value_on_grid(self, bench_model):
        for mu in np.linspace(0.0, 1.0, 201):
            value = solve_bayes(bench_model, seqtest.prior_belief(mu)).value
            assert value == pytest.approx(seqtest.optimal_value(mu), abs=1e-9)

    def test_stationarity_across_horizons(self):
        # the first-decision value function is the same for 2, 3 and 4
        # remaining observations
        grid = np.linspace(0.0, 1.0, 101)
        reference = [seqtest.optimal_value(mu) for mu in grid]
        for horizon in (2, 3, 4):
            model = seqtest.build_model(seqtest.SeqTestConfig(horizon=horizon))
            for mu, expected in zip(grid, reference):
                value = solve_bayes(model, seqtest.prior_belief(mu)).value
                assert value == pytest.approx(expected, abs=1e-9), (horizon, mu)


class TestBellmanSweep:
    def test_zero_observation_base_case(self):
        # sweeping the terminal decision cost once gives the one-step value
        for mu in np.linspace(0.0, 1.0, 101):
            swept = seqtest.bellman_sweep(seqtest.terminal_decision_cost, mu)
            assert swept == pytest.approx(seqtest.optimal_value(mu), abs=1e-12)

    def test_optimal_value_is_a_fixed_point(self):
        for mu in np.linspace(0.0, 1.0, 101):
            swept = seqtest.bellman_sweep(seqtest.optimal_value, mu)
            assert swept == pytest.approx(seqtest.optimal_value(mu), abs=1e-9)
