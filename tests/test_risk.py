import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from helpers import random_belief
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    avar_dual,
    avar_integral,
    entropic_dual_value,
    expected_cost,
    tilted_prior,
    value_at_risk,
    within_avar_caps,
)

from ambmdp.model import Belief
from ambmdp.risk import _tilt, avar_quantile, entropic_risk, relative_entropy


def belief(*weights) -> Belief:
    return Belief(np.array(weights))


class TestRelativeEntropy:
    def test_zero_on_identical(self):
        mu = belief(0.3, 0.2, 0.5)
        assert relative_entropy(mu, mu) == 0.0

    def test_point_mass_against_uniform(self):
        assert relative_entropy(belief(1.0, 0.0), belief(0.5, 0.5)) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_support_violation_is_infinite(self):
        assert relative_entropy(belief(0.5, 0.5), belief(1.0, 0.0)) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="sizes differ"):
            relative_entropy(belief(1.0), belief(0.5, 0.5))

    def test_non_negative_on_random_pairs(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 6))
            assert relative_entropy(random_belief(rng, k), random_belief(rng, k)) >= 0.0


    def test_near_pairs_match_exact_arithmetic(self, rng):
        # no normalization defect of order eps survives: the error is far
        # below eps, which divided by a small gamma broke weak duality
        for _ in range(50):
            k = int(rng.integers(2, 6))
            q = random_belief(rng, k).weights
            for spread in (1e-2, 1e-4, 1e-6):
                p = q * (1.0 + rng.uniform(-spread, spread, k))
                p = Belief(p / p.sum()).weights
                exact = exact_divergence(p, q)
                assert abs(relative_entropy(Belief(p), Belief(q)) - exact) <= 1e-17 + 1e-14 * exact

    @pytest.mark.parametrize("tiny", [5e-324, 1e-310, 2.0**-1001])
    def test_subnormal_base_weight_matches_exact_arithmetic(self, tiny):
        # (p - q)/q overflowed on such a q: a RuntimeWarning, and an infinite
        # divergence where p log(p/q) is about 372
        q = np.array([tiny, 1.0 - tiny])
        for p in ([0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [tiny, 1.0 - tiny], [1e-300, 1.0]):
            got = relative_entropy(belief(*p), Belief(q))
            exact = exact_divergence(belief(*p).weights, q)
            assert abs(got - exact) <= 1e-320 + 1e-14 * exact, (p, got, exact)


def exact_divergence(p, q) -> float:
    """sum p log(p/q) - p + q in 60-digit decimals: KL for normalized p and q."""
    with localcontext() as ctx:
        ctx.prec = 60
        total = Decimal(0)
        for a, b in zip(map(Decimal, p.tolist()), map(Decimal, q.tolist())):
            total += (a * (a / b).ln() if a else 0) - a + b
        return float(total)


def exact_entropic_risk(profile, weights, gamma: float) -> float:
    """log(sum b exp(gamma c))/gamma in 60-digit decimals, the base normalized."""
    with localcontext() as ctx:
        ctx.prec = 60
        b = [Decimal(x) for x in weights.tolist()]
        g = Decimal(gamma)
        total = sum(x * (g * Decimal(c)).exp() for x, c in zip(b, profile.tolist()))
        return float((total / sum(b)).ln() / g)


class TestEntropicRisk:
    def test_matches_exact_arithmetic_down_to_tiny_gamma(self, rng):
        for _ in range(40):
            k = int(rng.integers(2, 6))
            mu = random_belief(rng, k)
            v = rng.uniform(-5.0, 5.0, size=k)
            for gamma in 10.0 ** np.arange(-12.0, 1.0):
                exact = exact_entropic_risk(v, mu.weights, gamma)
                assert abs(entropic_risk(v, mu, gamma) - exact) <= 4e-16 * np.abs(v).max(), gamma

    @pytest.mark.parametrize(
        "profile, message",
        [([[1.0, 2.0]], "non-empty vector"), ([], "non-empty vector"),
         ([1.0, math.nan], "finite"), ([1.0, 2.0, 3.0], "has 3 entries, expected 2")],
        ids=("matrix", "empty", "nan", "length"),
    )
    def test_profile_is_refused(self, profile, message):
        with pytest.raises(ValueError, match=message):
            entropic_risk(profile, belief(0.5, 0.5), 1.0)

    def test_base_as_a_raw_array(self):
        # a weight vector that is not a Belief is read as one
        raw = entropic_risk([0.0, 1.0], np.array([0.25, 0.75]), 2.0)
        assert raw == entropic_risk([0.0, 1.0], belief(0.25, 0.75), 2.0)

    def test_constant_profile_for_any_gamma(self):
        mu = belief(0.4, 0.6)
        for gamma in (1e-6, 0.1, 1.0, 1e4):
            assert entropic_risk([3.5, 3.5], mu, gamma) == pytest.approx(3.5, abs=1e-12)

    def test_direct_two_point_value(self):
        expected = math.log((1.0 + math.e) / 2.0)
        assert entropic_risk([0.0, 1.0], belief(0.5, 0.5), 1.0) == pytest.approx(
            expected, abs=1e-14
        )

    def test_small_gamma_approaches_expectation(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 6))
            mu = random_belief(rng, k)
            v = rng.uniform(-5.0, 5.0, size=k)
            assert entropic_risk(v, mu, 1e-8) == pytest.approx(
                expected_cost(v, mu), abs=1e-6
            )

    def test_large_gamma_approaches_maximum(self):
        value = entropic_risk([0.0, 1.0], belief(0.5, 0.5), 1e4)
        assert value == pytest.approx(1.0, abs=1e-3)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError, match="gamma"):
            entropic_risk([0.0, 1.0], belief(0.5, 0.5), 0.0)

    def test_monotone_in_gamma(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 5))
            mu = random_belief(rng, k)
            v = rng.uniform(-5.0, 5.0, size=k)
            values = [entropic_risk(v, mu, g) for g in np.logspace(-3, 3, 25)]
            assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    @settings(max_examples=50, deadline=None)
    @given(
        shift=st.floats(min_value=-50.0, max_value=50.0),
        gamma=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_translation_property(self, shift, gamma):
        mu = belief(0.2, 0.5, 0.3)
        v = np.array([1.0, -2.0, 4.0])
        assert entropic_risk(v + shift, mu, gamma) == pytest.approx(
            entropic_risk(v, mu, gamma) + shift, abs=1e-9
        )

    def test_bounded_by_support_extremes(self, rng):
        for _ in range(30):
            k = int(rng.integers(2, 6))
            mu = random_belief(rng, k)
            v = rng.uniform(-5.0, 5.0, size=k)
            gamma = float(rng.uniform(1e-2, 50.0))
            value = entropic_risk(v, mu, gamma)
            assert expected_cost(v, mu) - 1e-12 <= value <= v.max() + 1e-12


class TestTiltedPrior:
    def test_constant_profile_returns_base(self):
        mu = belief(0.3, 0.7)
        out = tilted_prior([2.0, 2.0], mu, 0.5)
        np.testing.assert_allclose(out.weights, mu.weights, atol=1e-15)

    def test_exponential_tilt_two_point(self):
        out = tilted_prior([0.0, 1.0], belief(0.5, 0.5), 1.0)
        expected = np.array([1.0, math.e]) / (1.0 + math.e)
        np.testing.assert_allclose(out.weights, expected, atol=1e-15)

    def test_point_mass_base_is_fixed(self):
        base = belief(0.0, 1.0)
        assert tilted_prior([5.0, -1.0], base, 2.0) == base

    def test_maximizes_penalized_objective(self, rng):
        # probe 100 random feasible perturbation directions
        k = 4
        mu0 = random_belief(rng, k)
        v = rng.uniform(-3.0, 3.0, size=k)
        gamma = 0.7
        mu_hat = tilted_prior(v, mu0, gamma)
        objective = lambda w: float(w @ v) - relative_entropy(Belief(w), mu0) / gamma
        best = objective(mu_hat.weights)
        for _ in range(100):
            direction = rng.normal(size=k)
            direction -= direction.mean()
            probe = mu_hat.weights + 1e-3 * direction
            if np.any(probe < 0.0):
                continue
            assert objective(probe / probe.sum()) <= best + 1e-10


class TestTilt:
    """``_tilt``, the one entropic pass, on both of its branches: about the
    mean, where gamma times the profile's distance from its mean is below
    1, and max-shifted above it."""

    @pytest.mark.parametrize("about_the_mean", (True, False))
    def test_matches_independent_forms(self, rng, about_the_mean):
        for _ in range(60):
            k = int(rng.integers(2, 6))
            p = random_belief(rng, k).weights
            v = rng.uniform(-5.0, 5.0, size=k) * 10.0 ** rng.uniform(-2.0, 2.0)
            distance = float(np.abs(v - p @ v).max())
            # gamma * distance in [1e-6, 0.99) or in [1, 1e3)
            reach = 10.0 ** (rng.uniform(-6.0, -0.01) if about_the_mean else rng.uniform(0.0, 3.0))
            gamma = reach / distance
            assert (gamma * distance < 1.0) == about_the_mean
            w, rho = _tilt(v, p, np.log(p), gamma)
            tilted = p * np.exp(gamma * (v - v.max()))
            # each exponent gamma * v + log(p) is rounded once
            exponent = gamma * np.abs(v).max() + np.abs(np.log(p)).max()
            np.testing.assert_allclose(
                w, tilted / tilted.sum(), rtol=1e-15 * (1.0 + exponent), atol=1e-300
            )
            # so the max-shifted risk loses eps times the largest exponent over gamma
            scale = np.abs(v).max() + (0.0 if about_the_mean else np.abs(np.log(p)).max() / gamma)
            assert abs(rho - exact_entropic_risk(v, p, gamma)) <= 4e-16 * scale, reach

    def test_entropic_risk_drops_a_zero_base_weight(self, rng):
        # the pass runs on the base's support: the entry of a zero weight,
        # however large, changes no bit
        for _ in range(20):
            k = int(rng.integers(3, 6))
            p = random_belief(rng, k).weights.copy()
            p[int(rng.integers(k))] = 0.0
            p /= p.sum()
            on = p > 0.0
            v = rng.uniform(-5.0, 5.0, size=k)
            far = np.where(on, v, 1e300)
            for gamma in (1e-9, 0.3, 40.0):
                risk = entropic_risk(v, Belief(p), gamma)
                assert entropic_risk(far, Belief(p), gamma) == risk
                assert entropic_risk(v[on], Belief(p[on]), gamma) == risk
                scale = 5.0 + np.abs(np.log(p[on])).max() / gamma
                assert abs(risk - exact_entropic_risk(v[on], p[on], gamma)) <= 4e-16 * scale, gamma


class TestValueAtRisk:
    def test_median_at_even_odds(self):
        assert value_at_risk([1.0, 3.0], belief(0.5, 0.5), 0.5) == 1.0

    def test_jump_above_median(self):
        assert value_at_risk([1.0, 3.0], belief(0.5, 0.5), 0.7) == 3.0

    def test_constant_profile(self):
        for alpha in (0.05, 0.4, 0.95):
            assert value_at_risk([2.0, 2.0], belief(0.3, 0.7), alpha) == 2.0

    def test_alpha_range_enforced(self):
        for alpha in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(ValueError, match="alpha"):
                value_at_risk([1.0, 2.0], belief(0.5, 0.5), alpha)


class TestAvarQuantile:
    def test_tail_average_two_point(self):
        assert avar_quantile([1.0, 3.0], belief(0.5, 0.5), 0.5) == pytest.approx(
            3.0, abs=1e-15
        )

    def test_constant_profile(self):
        assert avar_quantile([2.0, 2.0], belief(0.3, 0.7), 0.4) == pytest.approx(2.0)

    def test_small_gamma_approaches_expectation(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 6))
            mu = random_belief(rng, k)
            v = rng.uniform(-5.0, 5.0, size=k)
            assert avar_quantile(v, mu, 1e-9) == pytest.approx(
                expected_cost(v, mu), abs=1e-6
            )

    def test_gamma_range_enforced(self):
        for gamma in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError, match="gamma"):
                avar_quantile([1.0, 2.0], belief(0.5, 0.5), gamma)

    def test_monotone_in_gamma(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 5))
            mu = random_belief(rng, k)
            v = rng.uniform(-5.0, 5.0, size=k)
            values = [avar_quantile(v, mu, g) for g in np.linspace(0.01, 0.99, 33)]
            assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    def test_translation_property(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 5))
            mu = random_belief(rng, k)
            v = rng.uniform(-5.0, 5.0, size=k)
            gamma = float(rng.uniform(0.05, 0.95))
            shift = float(rng.uniform(-10.0, 10.0))
            assert avar_quantile(v + shift, mu, gamma) == pytest.approx(
                avar_quantile(v, mu, gamma) + shift, abs=1e-10
            )

    def test_bounded_between_var_and_max(self, rng):
        for _ in range(30):
            k = int(rng.integers(2, 6))
            mu = random_belief(rng, k)
            v = rng.uniform(-5.0, 5.0, size=k)
            gamma = float(rng.uniform(0.05, 0.95))
            value = avar_quantile(v, mu, gamma)
            assert value >= value_at_risk(v, mu, gamma) - 1e-12
            assert value >= expected_cost(v, mu) - 1e-12
            assert value <= v.max() + 1e-12


class TestAvarDual:
    def test_greedy_fill_two_point(self):
        value, argmax = avar_dual([1.0, 3.0], belief(0.5, 0.5), 0.5)
        assert value == pytest.approx(3.0, abs=1e-15)
        np.testing.assert_allclose(argmax.weights, [0.0, 1.0], atol=1e-15)

    def test_constant_profile_canonical_argmax(self):
        value, argmax = avar_dual([2.0, 2.0], belief(0.5, 0.5), 0.5)
        assert value == pytest.approx(2.0)
        # greedy fills the lower index first on ties
        np.testing.assert_allclose(argmax.weights, [1.0, 0.0], atol=1e-15)

    def test_capped_fill(self):
        value, argmax = avar_dual([1.0, 3.0], belief(0.9, 0.1), 0.5)
        np.testing.assert_allclose(argmax.weights, [0.8, 0.2], atol=1e-15)
        assert value == pytest.approx(1.4, abs=1e-15)

    def test_argmax_lies_in_ambiguity_set(self, rng):
        assert not within_avar_caps(belief(0.5, 0.5), belief(0.9, 0.1), 0.5)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            mu = random_belief(rng, k)
            v = rng.uniform(-5.0, 5.0, size=k)
            gamma = float(rng.uniform(0.05, 0.95))
            _, argmax = avar_dual(v, mu, gamma)
            assert within_avar_caps(argmax, mu, gamma)


class TestDuality:
    def test_entropic_duality_on_random_instances(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 7))
            mu = random_belief(rng, k)
            v = rng.uniform(-10.0, 10.0, size=k)
            gamma = float(rng.uniform(1e-2, 50.0))
            direct = entropic_risk(v, mu, gamma)
            dual, argmax = entropic_dual_value(v, mu, gamma)
            assert dual == pytest.approx(direct, abs=1e-10)
            assert argmax == tilted_prior(v, mu, gamma)

    def test_avar_duality_on_random_instances(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 7))
            mu = random_belief(rng, k)
            v = rng.uniform(-10.0, 10.0, size=k)
            gamma = float(rng.uniform(0.02, 0.98))
            direct = avar_quantile(v, mu, gamma)
            dual, _ = avar_dual(v, mu, gamma)
            assert dual == pytest.approx(direct, abs=1e-12)
            assert avar_integral(v, mu, gamma) == pytest.approx(direct, abs=1e-12)

    def test_duality_with_zero_mass_atoms(self, rng):
        for _ in range(50):
            k = int(rng.integers(3, 6))
            weights = rng.dirichlet(np.ones(k))
            weights[int(rng.integers(k))] = 0.0
            mu = Belief(weights / weights.sum())
            v = rng.uniform(-10.0, 10.0, size=k)
            gamma_e = float(rng.uniform(0.1, 10.0))
            dual, _ = entropic_dual_value(v, mu, gamma_e)
            assert dual == pytest.approx(entropic_risk(v, mu, gamma_e), abs=1e-10)
            gamma_a = float(rng.uniform(0.05, 0.95))
            dual_a, _ = avar_dual(v, mu, gamma_a)
            assert dual_a == pytest.approx(avar_quantile(v, mu, gamma_a), abs=1e-12)
            assert avar_integral(v, mu, gamma_a) == pytest.approx(dual_a, abs=1e-12)
