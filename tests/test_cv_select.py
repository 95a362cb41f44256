import math

import numpy as np
import pytest

from riskmono import BaseProcedure, DataModel, Dataset, generate
from riskmono.cv_select import CandidateFamily, cross_validate, default_test_size
from riskmono.predictors import RowFit
from riskmono.risk_estimation import (
    closed_form_risk,
    delta_diagnostics,
    oracle_inequalities_hold,
)

def constant_fitter(betas):
    return lambda xi: (lambda train: RowFit(primal=betas[xi]))


class TestSelection:
    def test_interpolant_dominates_null_on_noiseless_data(self):
        rng = np.random.default_rng(0)
        beta0 = np.array([1.0, -2.0, 0.5])
        X = rng.standard_normal((30, 3))
        data = Dataset(X, X @ beta0)
        family = CandidateFamily(
            ("null", "truth"),
            constant_fitter({"null": np.zeros(3), "truth": beta0}),
        )
        table, pred = cross_validate(family, data, n_te=10, seed=1)
        assert table.selected == "truth"
        assert table.estimates()["truth"] == 0.0
        np.testing.assert_array_equal(pred.coefficients, beta0)

    def test_singleton_family(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.standard_normal((12, 2)), rng.standard_normal(12))
        family = CandidateFamily(("null",), constant_fitter({"null": np.zeros(2)}))
        table, _ = cross_validate(family, data, n_te=4, seed=2)
        assert table.selected == "null"

    def test_tie_breaks_to_earliest_index(self):
        rng = np.random.default_rng(2)
        data = Dataset(rng.standard_normal((10, 2)), rng.standard_normal(10))
        same = np.array([0.3, -0.1])
        family = CandidateFamily(("b", "a"), constant_fitter({"a": same, "b": same}))
        table, _ = cross_validate(family, data, n_te=3, seed=3)
        assert table.selected == "b"

    def test_failed_candidate_recorded_not_fatal(self):
        rng = np.random.default_rng(3)
        data = Dataset(rng.standard_normal((10, 2)), rng.standard_normal(10))

        def fitter(xi):
            if xi == "bad":
                def boom(train):
                    raise RuntimeError("candidate blew up")
                return boom
            return lambda train: RowFit(primal=np.zeros(2))

        family = CandidateFamily(("bad", "ok"), fitter)
        table, _ = cross_validate(family, data, n_te=3, seed=4)
        assert table.selected == "ok"
        bad_row = table.rows[0]
        assert bad_row.estimate is None and "candidate blew up" in bad_row.error

    def test_all_failures_raise(self):
        rng = np.random.default_rng(4)
        data = Dataset(rng.standard_normal((8, 2)), rng.standard_normal(8))

        def fitter(xi):
            def boom(train):
                raise ValueError("nope")
            return boom

        with pytest.raises(RuntimeError, match="every candidate failed"):
            cross_validate(CandidateFamily(("a",), fitter), data, n_te=2)

    def test_programming_error_propagates(self):
        # only numerical and solver errors mark a candidate failed
        rng = np.random.default_rng(4)
        data = Dataset(rng.standard_normal((8, 2)), rng.standard_normal(8))

        def fitter(xi):
            if xi == "bug":
                def boom(train):
                    raise TypeError("broken fitter")
                return boom
            return lambda train: RowFit(primal=np.zeros(2))

        with pytest.raises(TypeError, match="broken fitter"):
            cross_validate(CandidateFamily(("ok", "bug"), fitter), data, n_te=2)

    def test_reproducible(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.standard_normal((40, 3)), rng.standard_normal(40))
        family = CandidateFamily(
            (0.01, 0.1, 1.0),
            lambda lam: (lambda train: BaseProcedure.ridge(lam).row_fit(train)),
        )
        t1, _ = cross_validate(family, data, n_te=10, seed=9)
        t2, _ = cross_validate(family, data, n_te=10, seed=9)
        assert t1.estimates() == t2.estimates() and t1.selected == t2.selected

    def test_selected_attains_minimum(self):
        rng = np.random.default_rng(6)
        data = Dataset(rng.standard_normal((30, 4)), rng.standard_normal(30))
        family = CandidateFamily(
            (1e-3, 1e-2, 1e-1, 1.0, 10.0),
            lambda lam: (lambda train: BaseProcedure.ridge(lam).row_fit(train)),
        )
        table, _ = cross_validate(family, data, n_te=8, seed=10)
        assert table.selected_value() == min(table.estimates().values())


class TestDefaultTestSize:
    @pytest.mark.parametrize(
        "n", [10, 100, 1000, 2500]
    )
    def test_formula(self, n):
        want = math.ceil(n / math.ceil(math.log(n)))
        assert default_test_size(n) == min(max(1, want), n - 1)

    def test_small_n_valid(self):
        for n in range(2, 12):
            n_te = default_test_size(n)
            assert 1 <= n_te < n


class TestOracleInequalities:
    def run_once(self, seed):
        model = DataModel.dense(15, 2.0, 1.0)
        data, beta0 = generate(model, 60, seed=seed)
        lams = (1e-4, 1e-2, 1.0, 100.0)
        family = CandidateFamily(
            lams, lambda lam: (lambda train: BaseProcedure.ridge(lam).row_fit(train))
        )
        table, pred = cross_validate(family, data, n_te=12, seed=seed)
        trues = [
            closed_form_risk(row.predictor, beta0, 1.0)
            for row in table.rows
        ]
        hats = [row.estimate.value for row in table.rows]
        dadd, dmul = delta_diagnostics(hats, trues)
        selected_true = closed_form_risk(pred, beta0, 1.0)
        return selected_true, trues, dadd, dmul

    def test_lower_bound_and_prop21_upper_bounds(self):
        for seed in range(25):
            selected_true, trues, dadd, dmul = self.run_once(seed)
            # selection can never beat the best candidate's true risk
            assert selected_true >= min(trues) - 1e-10
            assert oracle_inequalities_hold(selected_true, trues, dadd, dmul)


def _nan_weights(train):
    return RowFit(weights=np.full(train.n, np.nan))


def _raises(train):
    raise ValueError("singular, as a fit can be")


class TestBatchedScoring:
    """cross_validate forms every candidate's coefficients in one product;
    a failed candidate stays out of it and leaves the others' bits alone."""

    # n_tr = 40 < p = 90: every mn2ls fit below is weights over the training
    # rows.  On an AVX-512 host with OpenBLAS 0.3.31, the rows of a 12 x 40 by
    # 40 x 90 product differ in their last bits from those of its 11-row
    # parts, so a failed candidate left in the product would show
    SIZES = (3, 6, 9, 12, 15, 18, 21, 24, 27, 30)

    @staticmethod
    def fitter(bad):
        mn2ls, ridge = BaseProcedure.mn2ls(), BaseProcedure.ridge(0.5)

        def fit(xi):
            if xi == "bad":
                return bad
            if xi == "ridge":  # a primal part only
                return lambda train: ridge.row_fit(train)
            if xi == "mixed":  # weights plus a primal part
                return lambda train: ridge.row_fit(train) + mn2ls.row_fit(
                    train, np.arange(train.n)[::-1], k=10)
            return lambda train: mn2ls.row_fit(train, np.arange(train.n), k=xi)
        return fit

    def run(self, indices, bad=None):
        rng = np.random.default_rng(7)
        data = Dataset(rng.standard_normal((50, 90)), rng.standard_normal(50))
        table, _ = cross_validate(CandidateFamily(indices, self.fitter(bad)), data,
                                  n_te=10, seed=8)
        return {row.index: row for row in table.rows}

    @pytest.mark.parametrize("bad, reason", [
        (_nan_weights, "ValueError: coefficients contain non-finite entries"),
        (_raises, "ValueError: singular, as a fit can be"),
    ], ids=["nan_weights", "raises"])
    @pytest.mark.parametrize("at", [0, 5, 12])
    def test_failed_candidate_leaves_the_others_bit_for_bit(self, bad, reason, at):
        indices = self.SIZES + ("ridge", "mixed")
        want = self.run(indices)
        got = self.run(indices[:at] + ("bad",) + indices[at:], bad)
        assert got["bad"].estimate is None and got["bad"].predictor is None
        assert got["bad"].error == reason
        for xi in indices:
            assert got[xi].error is None
            assert got[xi].estimate.value == want[xi].estimate.value
            assert (got[xi].predictor.coefficients.tobytes()
                    == want[xi].predictor.coefficients.tobytes())
