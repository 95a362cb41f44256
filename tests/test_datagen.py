import math

import numpy as np
import pytest

from riskmono import DataModel, generate
from riskmono.datagen import ConditionalSampler


class TestDenseModel:
    def test_signal_energy_concentrates(self):
        model = DataModel.dense(1000, 4.0, 1.0)
        norms = [np.sum(model.draw_beta(seed) ** 2) for seed in range(50)]
        assert abs(np.mean(norms) - 4.0) < 0.5

    def test_snr(self):
        assert DataModel.dense(10, 4.0, 2.0).snr == 2.0

    def test_noiseless_responses_exact(self):
        model = DataModel.dense(5, 1.0, 1e-300)
        data, beta0 = generate(model, 20, seed=1)
        np.testing.assert_allclose(data.response, data.features @ beta0, atol=1e-12)


class TestSparseModel:
    def test_support_size_binomial(self):
        model = DataModel.sparse(2000, 0.005, 2.0, 1.0)
        counts = [np.count_nonzero(model.draw_beta(seed)) for seed in range(50)]
        expect = 2000 * 0.005
        band = 3 * math.sqrt(2000 * 0.005 * 0.995)
        assert abs(np.mean(counts) - expect) <= band

    def test_energy_normalization(self):
        # nonzero magnitude is magnitude/sqrt(p eps) so E||beta0||^2 = magnitude^2
        model = DataModel.sparse(5000, 0.01, 2.0, 1.0)
        norms = [np.sum(model.draw_beta(seed) ** 2) for seed in range(60)]
        assert abs(np.mean(norms) - 4.0) < 0.5

    def test_mn1ls_prior_mapping(self):
        model = DataModel.sparse(100, 0.01, 2.0, 1.0)
        prior = model.mn1ls_prior()
        assert prior.epsilon == 0.01
        assert prior.magnitude == pytest.approx(20.0)
        assert prior.signal_energy == pytest.approx(4.0)

    def test_dense_model_has_no_prior(self):
        with pytest.raises(ValueError):
            DataModel.dense(10, 1.0, 1.0).mn1ls_prior()


class TestGenerate:
    def test_shapes_and_determinism(self):
        model = DataModel.dense(7, 1.0, 1.0)
        d1, b1 = generate(model, 13, seed=5)
        d2, b2 = generate(model, 13, seed=5)
        assert d1.n == 13 and d1.p == 7
        np.testing.assert_array_equal(d1.features, d2.features)
        np.testing.assert_array_equal(b1, b2)
        d3, _ = generate(model, 13, seed=6)
        assert not np.array_equal(d1.features, d3.features)

    def test_sampler_is_conditional_on_signal(self):
        model = DataModel.dense(4, 1.0, 1.0)
        _, beta0 = generate(model, 5, seed=2)
        sampler = ConditionalSampler(model, beta0)
        fresh = sampler.draw(2000, seed=3)
        # regressing fresh responses on features recovers beta0 closely
        est = np.linalg.lstsq(fresh.features, fresh.response, rcond=None)[0]
        assert np.linalg.norm(est - beta0) < 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            DataModel.dense(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            DataModel.dense(5, 1.0, 0.0)
        with pytest.raises(ValueError):
            DataModel.sparse(5, 1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            DataModel("weird", 5, 1.0)
