"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
pass/fail lines immediately).
"""

import csv
import time
from contextlib import contextmanager

import numpy as np
import pytest
from helpers import decision_nodes, policy_from, random_belief, random_model
from oracles import avar_dual, avar_integral, bellman_sweep, entropic_dual_value

from ambmdp import seqtest
from ambmdp.ambiguity import solve, solve_avar, solve_entropic
from ambmdp.bayes import policy_cost_profile, solve_bayes
from ambmdp.belief import predictive
from ambmdp.cli import parse_config, run
from ambmdp.oracle import enumerate_cost
from ambmdp.risk import avar_quantile, entropic_risk

GRID = np.linspace(0.0, 1.0, 1001)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_value_function_reproduction(bench_model):
    with criterion(1, "solver matches the piecewise value at 1001 beliefs (1e-9, <=10s)"):
        start = time.perf_counter()
        for mu in GRID:
            value = solve_bayes(bench_model, seqtest.prior_belief(mu)).value
            assert abs(value - seqtest.optimal_value(mu)) <= 1e-9, mu
        elapsed = time.perf_counter() - start
        assert elapsed <= 10.0, f"took {elapsed:.2f}s"


def test_criterion_2_entropic_saddle(bench_model):
    with criterion(2, "entropic worst prior 0.232 +/- 1e-3 with gap <= 1e-6 (<=5s)"):
        start = time.perf_counter()
        result = solve_entropic(bench_model, seqtest.prior_belief(0.1), gamma=0.1)
        elapsed = time.perf_counter() - start
        assert abs(result.worst_prior.weights[0] - 0.232) <= 1e-3
        assert result.gap <= 1e-6
        assert elapsed <= 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_avar_regimes(bench_model):
    with criterion(3, "avar value matches closed form on 20 pairs across all regimes"):
        pairs = []
        for mu0 in (0.1, 0.2, 0.3, 0.4):
            b1 = 1.0 - mu0 / (13.0 / 30.0)
            b2 = 1.0 - mu0 / (17.0 / 30.0)
            pairs += [
                (0.5 * b1, mu0),
                (0.9 * b1, mu0),
                (0.5 * (b1 + b2), mu0),
                (b2 + 0.5 * (1.0 - b2), mu0),
                (0.999, mu0),
            ]
        assert len(pairs) == 20
        for gamma, mu0 in pairs:
            result = solve_avar(bench_model, seqtest.prior_belief(mu0), gamma=gamma)
            lo, hi = seqtest.avar_worst_prior_interval(gamma, mu0)
            expected = seqtest.optimal_value(0.5 * (lo + hi))
            assert abs(result.value - expected) <= 1e-6, (gamma, mu0)
            assert result.gap <= 1e-6, (gamma, mu0)
            if lo == hi:  # unique-maximizer regime pins the argument too
                assert abs(result.worst_prior.weights[0] - lo) <= 1e-6, (gamma, mu0)


def test_criterion_4_limit_behavior(bench_model):
    with criterion(4, "gamma limits: base prior at 0+, plateau band at the top end"):
        band = (13.0 / 30.0 - 1e-3, 0.5 + 1e-3)
        for mu0 in (0.1, 0.2, 0.3):
            base = seqtest.prior_belief(mu0)
            small = solve_entropic(bench_model, base, gamma=1e-6)
            assert abs(small.worst_prior.weights[0] - mu0) <= 1e-2, mu0
            big = solve_entropic(bench_model, base, gamma=1e3)
            assert band[0] <= big.worst_prior.weights[0] <= band[1], mu0
            top = solve_avar(bench_model, base, gamma=0.999)
            assert band[0] <= top.worst_prior.weights[0] <= band[1], mu0


def test_criterion_5_robust_value(bench_model):
    with criterion(5, "robust worst-case value equals 13/3 within 1e-9"):
        result = solve(bench_model, "robust", seqtest.prior_belief(0.5))
        assert abs(result.value - 13.0 / 3.0) <= 1e-9


def test_criterion_6_duality_suite():
    with criterion(6, "dual equals direct risk on 200 random instances"):
        rng = np.random.default_rng(612)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            mu = random_belief(rng, k)
            v = rng.uniform(-10.0, 10.0, size=k)
            gamma_e = float(rng.uniform(1e-2, 50.0))
            dual, _ = entropic_dual_value(v, mu, gamma_e)
            assert abs(dual - entropic_risk(v, mu, gamma_e)) <= 1e-10
            gamma_a = float(rng.uniform(0.02, 0.98))
            dual_a, _ = avar_dual(v, mu, gamma_a)
            assert abs(dual_a - avar_quantile(v, mu, gamma_a)) <= 1e-12
            assert abs(avar_integral(v, mu, gamma_a) - avar_quantile(v, mu, gamma_a)) <= 1e-12


def test_criterion_7_oracle_equivalence():
    with criterion(7, "trajectory enumeration equals backward induction (1e-12)"):
        rng = np.random.default_rng(77)
        for _ in range(50):
            model = random_model(
                rng,
                n_states=int(rng.integers(2, 5)),
                n_actions=int(rng.integers(1, 4)),
                horizon=int(rng.integers(1, 4)),
                n_params=int(rng.integers(2, 4)),
            )
            prior = random_belief(rng, model.n_params)
            solution = solve_bayes(model, prior)
            tree = solution.tree
            policies = [solution.policy]
            for _ in range(5):
                actions = {
                    index: int(rng.choice(model.feasible[n][state]))
                    for index, n, state in decision_nodes(tree)
                }
                policies.append(policy_from(tree, actions))
            for policy in policies:
                for theta in range(model.n_params):
                    direct = policy_cost_profile(model, policy)[theta]
                    enumerated, _ = enumerate_cost(model, theta, policy)
                    assert abs(direct - enumerated) <= 1e-12


def test_criterion_8_bellman_fixed_point():
    with criterion(8, "one sweep of the optimal value reproduces it (1e-9)"):
        for mu in GRID:
            swept = bellman_sweep(seqtest.optimal_value, mu)
            assert abs(swept - seqtest.optimal_value(mu)) <= 1e-9, mu


def test_criterion_9_belief_martingale():
    with criterion(9, "posterior mixture returns the prior belief (1e-12, 500 draws)"):
        rng = np.random.default_rng(99)
        for _ in range(500):
            model = random_model(rng)
            belief = random_belief(rng, model.n_params)
            x = int(rng.integers(model.n_states))
            n = int(rng.integers(model.horizon))
            feasible = model.feasible[n][x]
            a = int(feasible[int(rng.integers(len(feasible)))])
            pred = predictive(model, n, x, belief, a)
            mixed = np.zeros(model.n_params)
            for x_next in range(model.n_states):
                mixed += pred.masses[x_next] * pred.posteriors[x_next].weights
            assert np.max(np.abs(mixed - belief.weights)) <= 1e-12


FIGURE_ENTROPIC = """
mode = figure-entropic
model.name = seqtest
model.horizon = 1
sweep.gamma = 0:2:0.05
sweep.prior = 0.1 0.2 0.3
"""

FIGURE_AVAR = """
mode = figure-avar
model.name = seqtest
model.horizon = 1
sweep.gamma = 0:0.95:0.05
sweep.prior = 0.1 0.2 0.3
"""


def test_criterion_10_figure_data(tmp_path):
    with criterion(10, "figure sweeps are monotone toward the uniform prior"):
        out = tmp_path / "entropic.csv"
        run(parse_config(FIGURE_ENTROPIC), out_path=str(out))
        rows = list(csv.DictReader(out.read_text().splitlines()))
        target = {(0.1, 0.1): 0.232}
        for prior in ("0.1", "0.2", "0.3"):
            series = [
                (float(r["gamma"]), float(r["worst_prior"]))
                for r in rows
                if r["prior"] == prior
            ]
            values = [v for _, v in series]
            assert all(b >= a - 1e-6 for a, b in zip(values, values[1:])), prior
            assert all(v <= 0.5 + 1e-6 for v in values)
        by_key = {(float(r["gamma"]), float(r["prior"])): r for r in rows}
        assert abs(float(by_key[(0.1, 0.1)]["worst_prior"]) - 0.232) <= 1e-3

        out = tmp_path / "avar.csv"
        run(parse_config(FIGURE_AVAR), out_path=str(out))
        rows = list(csv.DictReader(out.read_text().splitlines()))
        for prior in ("0.1", "0.2", "0.3"):
            values = [
                float(r["worst_prior_lo"]) for r in rows if r["prior"] == prior
            ]
            assert all(b >= a - 1e-6 for a, b in zip(values, values[1:])), prior
            assert all(v <= 0.5 + 1e-6 for v in values)
