import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmono import BaseProcedure, DataModel, Dataset, generate
from riskmono.core import LinearPredictor
from riskmono.datagen import ConditionalSampler
from riskmono.risk_estimation import (
    AVG,
    InfeasibleEtaError,
    Mom,
    closed_form_risk,
    delta_diagnostics,
    estimate_risk,
    mc_true_risk,
    median_of_means,
    mom_batch_count,
)


def eta_for_batches(B):
    """Largest eta giving ceil(8 log(1/eta)) == B (hit exactly at B/8)."""
    return math.exp(-B / 8.0)


def loss_dataset(losses):
    """Data on which the zero predictor incurs exactly the given losses."""
    losses = np.asarray(losses, dtype=float)
    X = np.zeros((losses.size, 1))
    return Dataset(X, np.sqrt(losses))


ZERO = LinearPredictor([0.0])


class TestAvg:
    def test_mean_of_ones(self):
        est = estimate_risk(ZERO, loss_dataset([1.0, 1.0, 1.0]))
        assert est.value == 1.0 and est.n_te == 3

    def test_perfect_interpolant(self):
        data = Dataset([[1.0], [2.0]], [3.0, 6.0])
        est = estimate_risk(LinearPredictor([3.0]), data)
        assert est.value == 0.0

    def test_arithmetic_mean(self):
        assert estimate_risk(ZERO, loss_dataset([1.0, 3.0, 5.0])).value == 3.0

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            estimate_risk(ZERO, loss_dataset([]))


class TestMom:
    def test_batch_count_formula(self):
        # exact arithmetic: B = ceil(8 ln(1/eta))
        for eta in np.linspace(0.01, 0.95, 20):
            assert mom_batch_count(eta) == max(1, math.ceil(8 * math.log(1 / eta)))

    def test_single_batch_equals_avg_bitwise(self):
        losses = np.array([0.31, 2.7, 1.9, 0.02, 5.5])
        eta = eta_for_batches(1)
        assert mom_batch_count(eta) == 1
        data = loss_dataset(losses)
        mom = estimate_risk(ZERO, data, Mom(eta))
        avg = estimate_risk(ZERO, data)
        assert mom.value == avg.value

    def test_three_batches_oracle(self):
        # batch means of 1..9 with B=3 are (2, 5, 8); median = 5
        eta = eta_for_batches(3)
        assert mom_batch_count(eta) == 3
        assert median_of_means(np.arange(1.0, 10.0), eta) == 5.0

    def test_even_batch_count_averages_middle_pair(self):
        # batch means (1.5, 501.5); even-count median = 251.5
        eta = eta_for_batches(2)
        assert mom_batch_count(eta) == 2
        assert median_of_means(np.array([1.0, 2.0, 3.0, 1000.0]), eta) == 251.5

    def test_remainder_spread_to_first_batches(self):
        # 7 values, B=3 -> sizes (3, 2, 2)
        eta = eta_for_batches(3)
        vals = np.array([0.0, 0.0, 3.0, 2.0, 2.0, 10.0, 10.0])
        assert median_of_means(vals, eta) == 2.0

    def test_infeasible_eta(self):
        with pytest.raises(InfeasibleEtaError):
            median_of_means(np.ones(3), 1e-6)
        with pytest.raises(InfeasibleEtaError):
            estimate_risk(ZERO, loss_dataset([1.0, 2.0, 3.0]), Mom(1e-6))

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError, match="test set is empty"):
            estimate_risk(ZERO, loss_dataset([]), Mom(0.05))

    def test_estimate_carries_its_centering(self):
        data = loss_dataset([1.0, 3.0, 5.0])
        assert estimate_risk(ZERO, data, Mom(0.9)).method == Mom(0.9)
        assert estimate_risk(ZERO, data).method == AVG

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 9999))
    def test_robust_to_gross_corruption(self, seed):
        rng = np.random.default_rng(seed)
        n, B = 200, 9
        eta = eta_for_batches(B)
        clean = rng.normal(5.0, 1.0, size=n)
        spread = np.ptp([np.mean(b) for b in np.array_split(clean, B)])
        corrupted = clean.copy()
        k = (B - 1) // 2
        corrupted[rng.choice(n, size=k, replace=False)] = 1e12
        shift = abs(median_of_means(corrupted, eta) - median_of_means(clean, eta))
        assert shift <= max(spread, 1e-12)


class TestTrueRiskOracles:
    def test_mc_risk_near_noise_floor_when_truth_known(self):
        model = DataModel.dense(30, 4.0, 1.0)
        data, beta0 = generate(model, 50, seed=3)
        sampler = ConditionalSampler(model, beta0)
        est = mc_true_risk(LinearPredictor(beta0), sampler, 4000, seed=9)
        se = est.value * math.sqrt(2.0 / 4000)
        assert abs(est.value - 1.0) <= 3 * max(se, math.sqrt(2.0 / 4000))

    def test_null_predictor_near_null_risk(self):
        model = DataModel.dense(800, 4.0, 1.0)
        data, beta0 = generate(model, 10, seed=4)
        sampler = ConditionalSampler(model, beta0)
        est = mc_true_risk(LinearPredictor(np.zeros(800)), sampler, 4000, seed=10)
        assert abs(est.value - 5.0) < 0.6

    def test_determinism(self):
        model = DataModel.dense(5, 1.0, 1.0)
        _, beta0 = generate(model, 10, seed=5)
        sampler = ConditionalSampler(model, beta0)
        a = mc_true_risk(ZERO.__class__(np.zeros(5)), sampler, 1, seed=77)
        b = mc_true_risk(ZERO.__class__(np.zeros(5)), sampler, 1, seed=77)
        assert a.value == b.value

    def test_closed_form_matches_mc(self):
        model = DataModel.dense(40, 4.0, 1.0)
        data, beta0 = generate(model, 100, seed=6)
        pred = BaseProcedure.mn2ls().fit(data)
        exact = closed_form_risk(pred, beta0, 1.0)
        sampler = ConditionalSampler(model, beta0)
        mc = mc_true_risk(pred, sampler, 20000, seed=11)
        se = exact * math.sqrt(2.0 / 20000)
        assert abs(mc.value - exact) <= 4 * se


class TestDeltaDiagnostics:
    def test_exact_estimates_give_zero(self):
        assert delta_diagnostics([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0)

    def test_worked_values(self):
        assert delta_diagnostics([2.0, 4.0], [1.0, 4.0]) == (1.0, 1.0)
        dadd, dmul = delta_diagnostics([1.1, 0.9], [1.0, 1.0])
        assert math.isclose(dadd, 0.1) and math.isclose(dmul, 0.1)

    def test_zero_true_risk_rejected_for_multiplicative(self):
        with pytest.raises(ZeroDivisionError):
            delta_diagnostics([1.0], [0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            delta_diagnostics([1.0], [1.0, 2.0])
