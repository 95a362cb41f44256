import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmono import BaseProcedure, Dataset, _lapack, predictors
from riskmono.core import SolverError
from riskmono.predictors import fit_lasso, fit_mn1ls, fit_mn2ls, fit_null, fit_ridge

from conftest import (
    l1_lp_oracle,
    l1_vertex_oracle,
    min_norm_interpolant_oracle,
    ols_oracle,
    random_dataset,
)


class TestMn2ls:
    def test_identity_design(self):
        data = Dataset(np.eye(3), [1.0, 2.0, 3.0])
        np.testing.assert_allclose(fit_mn2ls(data).coefficients, [1, 2, 3], atol=1e-12)

    def test_single_row_min_norm_interpolant(self):
        # oracle: beta = X'(XX')^{-1} y = (0.4, 0.8) for X=[1,2], y=2
        data = Dataset([[1.0, 2.0]], [2.0])
        oracle = min_norm_interpolant_oracle(data.features, data.response)
        np.testing.assert_allclose(oracle, [0.4, 0.8], atol=1e-15)
        np.testing.assert_allclose(fit_mn2ls(data).coefficients, oracle, atol=1e-12)

    def test_matches_ols_when_overdetermined(self, rng):
        data, _ = random_dataset(rng, 30, 6)
        want = ols_oracle(data.features, data.response)
        np.testing.assert_allclose(fit_mn2ls(data).coefficients, want, atol=1e-8)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000))
    def test_normal_equations_residual(self, seed):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(3, 25)), int(rng.integers(2, 25))
        data, _ = random_dataset(rng, n, p)
        beta = fit_mn2ls(data).coefficients
        X, y = data.features, data.response
        lhs = X.T @ (X @ beta)
        rhs = X.T @ y
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10_000))
    def test_fast_path_matches_svd_route(self, seed):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(2, 30)), int(rng.integers(2, 30))
        X = rng.standard_normal((n, p))
        if seed % 3 == 0 and p >= 2:
            X[:, -1] = X[:, 0]  # force rank deficiency -> SVD fallback
        y = rng.standard_normal(n)
        got = fit_mn2ls(Dataset(X, y)).coefficients
        want = np.linalg.lstsq(X, y, rcond=1e-12 * max(n, p))[0]
        assert np.max(np.abs(got - want)) < 1e-9

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000))
    def test_interpolates_in_overparameterized_regime(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        p = n + int(rng.integers(1, 12))
        data, _ = random_dataset(rng, n, p)
        beta = fit_mn2ls(data).coefficients
        resid = data.features @ beta - data.response
        assert np.max(np.abs(resid)) <= 1e-7 * max(1.0, np.max(np.abs(data.response)))


class TestMn1ls:
    def test_single_row(self):
        # brute force over the constraint line b1 + 2 b2 = 2 gives (0, 1)
        data = Dataset([[1.0, 2.0]], [2.0])
        grid = np.linspace(-3, 3, 20001)
        l1 = np.abs(grid) + np.abs((2 - grid) / 2)
        assert abs(grid[np.argmin(l1)]) < 1e-3 and abs(l1.min() - 1.0) < 1e-4
        beta = fit_mn1ls(data).coefficients
        np.testing.assert_allclose(beta, [0.0, 1.0], atol=1e-9)

    def test_unique_ls_solution(self):
        data = Dataset(np.eye(2), [1.0, -1.0])
        np.testing.assert_allclose(fit_mn1ls(data).coefficients, [1, -1], atol=1e-12)

    def test_matches_vertex_enumeration_on_random_instances(self, rng):
        for _ in range(10):
            data, _ = random_dataset(rng, 3, 6)
            beta = fit_mn1ls(data).coefficients
            want = l1_vertex_oracle(data.features, data.response)
            assert abs(np.sum(np.abs(beta)) - want) < 1e-7

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10_000))
    def test_l1_norm_never_exceeds_mn2ls(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        p = n + int(rng.integers(1, 8))
        data, _ = random_dataset(rng, n, p)
        l1 = np.abs(fit_mn1ls(data).coefficients).sum()
        l2path = np.abs(fit_mn2ls(data).coefficients).sum()
        assert l1 <= l2path + 1e-7

    def test_interpolates_when_wide(self, rng):
        data, _ = random_dataset(rng, 4, 9)
        beta = fit_mn1ls(data).coefficients
        resid = data.features @ beta - data.response
        assert np.max(np.abs(resid)) <= 1e-7 * max(1.0, np.max(np.abs(data.response)))


def duplicated_rows(rng, n, p):
    # rows n/2.. repeat rows 0..n/2-1, so X has rank n/2
    X = rng.standard_normal((n, p))
    X[n // 2 :] = X[: n // 2]
    return Dataset(X, rng.standard_normal(n))


def l1_case(name):
    # rank-deficient cases vertex enumeration cannot reach
    rng = np.random.default_rng(21)
    if name == "generic":
        return random_dataset(rng, 30, 90)[0]
    if name == "duplicated_rows":
        return duplicated_rows(rng, 30, 80)
    if name == "rank_deficient_tall":
        X = rng.standard_normal((40, 6)) @ rng.standard_normal((6, 20))
        return Dataset(X, rng.standard_normal(40))
    # columns 1 and 3 copy column 0 (3 negated) and column 2 is zero; at this
    # seed an active copy leaves the path, and another copy must not take its
    # place at the same knot
    if name == "duplicated_and_zero_columns":
        X = rng.standard_normal((30, 90))
        X[:, 1], X[:, 2], X[:, 3] = X[:, 0], 0.0, -X[:, 0]
        return Dataset(X, X[:, :3] @ rng.standard_normal(3) + rng.standard_normal(30))
    # columns 0 and 1 reach the boundary together; min ||b||_1 = 2 at (1, 1, 0)
    return Dataset([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]], [1.0, -1.0])


@pytest.mark.parametrize(
    "case",
    ["generic", "duplicated_rows", "duplicated_and_zero_columns", "rank_deficient_tall", "tied"],
)
def test_mn1ls_matches_lp_oracle(case):
    data = l1_case(case)
    X, y = data.features, data.response
    beta = fit_mn1ls(data).coefficients
    want = np.abs(l1_lp_oracle(X, y)).sum()
    assert abs(np.abs(beta).sum() - want) <= 1e-8 * want
    grad = X.T @ (X @ beta - y)
    assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(X.T @ y)


class TestRidge:
    def test_hand_worked_example(self):
        # direct-solve oracle: (X'X/m + I)^{-1} X'y/m with X=I_2, y=(2,2), m=2
        data = Dataset(np.eye(2), [2.0, 2.0])
        oracle = np.linalg.solve(np.eye(2) / 2 + np.eye(2), np.array([1.0, 1.0]))
        np.testing.assert_allclose(oracle, [2 / 3, 2 / 3])
        np.testing.assert_allclose(fit_ridge(data, 1.0).coefficients, oracle, atol=1e-12)

    def test_huge_penalty_shrinks_to_zero(self, rng):
        data, _ = random_dataset(rng, 20, 5)
        beta = fit_ridge(data, 1e12).coefficients
        assert np.linalg.norm(beta) < 1e-6

    def test_small_penalty_approaches_ols(self, rng):
        data, _ = random_dataset(rng, 40, 5)
        want = ols_oracle(data.features, data.response)
        got = fit_ridge(data, 1e-10).coefficients
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-5

    def test_ridgeless_limit_matches_mn2ls(self, rng):
        data, _ = random_dataset(rng, 25, 6)
        got = fit_ridge(data, 1e-8).coefficients
        want = fit_mn2ls(data).coefficients
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-4

    def test_wide_matrix_uses_same_solution(self, rng):
        data, _ = random_dataset(rng, 6, 40)
        X, y, m = data.features, data.response, data.n
        want = np.linalg.solve(X.T @ X / m + 0.5 * np.eye(40), X.T @ y / m)
        np.testing.assert_allclose(fit_ridge(data, 0.5).coefficients, want, atol=1e-10)

    def test_nonpositive_penalty_rejected(self, rng):
        data, _ = random_dataset(rng, 5, 2)
        with pytest.raises(ValueError):
            fit_ridge(data, 0.0)


class TestLasso:
    def test_zero_above_max_penalty(self, rng):
        data, _ = random_dataset(rng, 15, 4)
        lam_max = np.max(np.abs(data.features.T @ data.response / data.n))
        beta = fit_lasso(data, lam_max * 1.0001).coefficients
        np.testing.assert_array_equal(beta, np.zeros(4))

    def test_orthonormal_design_soft_threshold(self, rng):
        # with X'X/m = I the solution is coordinatewise soft thresholding
        m, p = 32, 5
        Q, _ = np.linalg.qr(rng.standard_normal((m, p)))
        X = np.sqrt(m) * Q
        beta0 = np.array([2.0, -1.5, 0.02, 0.5, 0.0])
        y = X @ beta0
        data = Dataset(X, y)
        lam = 0.3
        rho = X.T @ y / m
        want = np.sign(rho) * np.maximum(np.abs(rho) - lam, 0.0)
        np.testing.assert_allclose(fit_lasso(data, lam).coefficients, want, atol=1e-9)

    def test_tiny_penalty_approaches_mn1ls_objective(self, rng):
        data, _ = random_dataset(rng, 3, 6)
        lam = 1e-8
        m = data.n

        def objective(b):
            r = data.response - data.features @ b
            return 0.5 * r @ r / m + lam * np.abs(b).sum()

        lasso = fit_lasso(data, lam).coefficients
        interp = fit_mn1ls(data).coefficients
        assert objective(lasso) <= objective(interp) + 1e-6

    def test_path_continuity_smoke(self, rng):
        data, _ = random_dataset(rng, 20, 6)
        lams = np.linspace(0.05, 0.5, 10)
        betas = np.array([fit_lasso(data, lam).coefficients for lam in lams])
        steps = np.abs(np.diff(betas, axis=0)).max(axis=1)
        dlam = lams[1] - lams[0]
        # no jumps: successive changes stay within a fitted local constant
        assert steps.max() <= 50 * dlam

    def test_tied_columns_all_join(self):
        # X'X/m = I/2 and both correlations are 0.5: soft thresholding at
        # 0.1 of 2 X'y/m = (1, 1)
        beta = fit_lasso(Dataset(np.eye(2), [1.0, 1.0]), 0.1).coefficients
        np.testing.assert_allclose(beta, [0.8, 0.8], atol=1e-12)


def lasso_kkt_residual(data, beta, lam):
    """Largest violation of the lasso optimality conditions."""
    X, y = data.features, data.response
    g = X.T @ (y - X @ beta) / data.n
    viol = np.where(beta != 0, np.abs(g - lam * np.sign(beta)), np.abs(g) - lam)
    return max(0.0, float(np.max(viol)))


@pytest.mark.parametrize("shape", ["tall", "wide", "duplicated_rows"])
def test_lasso_kkt_and_zeros_above_max(shape):
    rng = np.random.default_rng(11)
    if shape == "duplicated_rows":
        data = duplicated_rows(rng, 30, 80)
    else:
        data, _ = random_dataset(rng, *((40, 10) if shape == "tall" else (20, 60)))
    lam_max = np.max(np.abs(data.features.T @ data.response)) / data.n
    for frac in (0.01, 0.1, 0.5, 0.9):
        beta = fit_lasso(data, frac * lam_max).coefficients
        assert np.any(beta != 0)
        assert lasso_kkt_residual(data, beta, frac * lam_max) <= 1e-9
    # lam_max from the original rows agrees with the reduced rows' to rounding
    for factor in (1 + 1e-12, 2.0):
        np.testing.assert_array_equal(fit_lasso(data, factor * lam_max).coefficients, 0.0)


def test_integer_designs_with_ties():
    # entries in {-1, 0, 1} and integer responses tie many knots; every fit
    # must match the LP (mn1ls) or meet the optimality conditions (lasso)
    rng = np.random.default_rng(5)
    for _ in range(40):
        n, p = int(rng.integers(2, 10)), int(rng.integers(2, 20))
        data = Dataset(
            rng.integers(-1, 2, (n, p)).astype(float), rng.integers(-2, 3, n).astype(float)
        )
        lam_max = np.max(np.abs(data.features.T @ data.response)) / n
        if lam_max == 0:
            continue
        beta = fit_mn1ls(data).coefficients
        want = np.abs(l1_lp_oracle(data.features, data.response)).sum()
        assert abs(np.abs(beta).sum() - want) <= 1e-8 * want
        for frac in (0.01, 0.1, 0.5):
            beta = fit_lasso(data, frac * lam_max).coefficients
            assert lasso_kkt_residual(data, beta, frac * lam_max) <= 1e-9 * lam_max


def test_homotopy_rejects_a_non_optimal_result():
    # (0.8, 0) is what the path returns if column 1 never joins at the tie
    with pytest.raises(SolverError, match="optimality residual"):
        predictors._check_optimal(np.eye(2), np.ones(2), np.array([0.8, 0.0]), 0.1, 2, None, 0.5)


@pytest.mark.parametrize("fit", [fit_mn1ls, lambda data: fit_lasso(data, 0.05)])
def test_homotopy_memory_is_linear_in_p(fit, rng):
    # a p x p gram would take 72 MB here; the fit may hold O(r p)
    data, _ = random_dataset(rng, 20, 3000)
    tracemalloc.start()
    try:
        fit(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 3000**2 / 20


class TestNullAndDispatch:
    def test_null_is_zero(self, rng):
        data, _ = random_dataset(rng, 7, 3)
        pred = fit_null(data)
        np.testing.assert_array_equal(pred.coefficients, np.zeros(3))
        assert pred.predict(np.ones(3)) == 0.0

    def test_base_procedure_dispatch(self, rng):
        data, _ = random_dataset(rng, 12, 4)
        np.testing.assert_array_equal(
            BaseProcedure.mn2ls().fit(data).coefficients, fit_mn2ls(data).coefficients
        )
        np.testing.assert_array_equal(
            BaseProcedure.ridge(0.1).fit(data).coefficients,
            fit_ridge(data, 0.1).coefficients,
        )
        np.testing.assert_array_equal(
            BaseProcedure.null().fit(data).coefficients, np.zeros(4)
        )

    def test_base_procedure_validation(self):
        with pytest.raises(ValueError):
            BaseProcedure("unknown")
        with pytest.raises(ValueError):
            BaseProcedure("ridge")
        with pytest.raises(ValueError):
            BaseProcedure("mn2ls", 0.1)


def _repeated_row_train(rng):
    # n = 45 rows, p = 40; row 44 repeats row 3, so any subset holding both
    # has a singular row gram and takes the SVD route
    X = rng.standard_normal((45, 40))
    X[44] = X[3]
    return Dataset(X, rng.standard_normal(45))


class TestFitRows:
    def test_mn2ls_matches_generic_fit_on_rows(self, rng, monkeypatch):
        train = _repeated_row_train(rng)
        base = BaseProcedure.mn2ls()
        calls = []
        monkeypatch.setattr(
            predictors, "fit_mn2ls", lambda data: calls.append(data.n) or fit_mn2ls(data)
        )
        clean = np.setdiff1d(np.arange(45), [44])
        subsets = [
            np.sort(rng.choice(clean, 20, replace=False)),  # p > k: row gram
            clean[:39],  # p > k, just below p: row gram
            np.union1d(clean[:38], [44]),  # 39 rows with a repeat: row gram, then SVD
            np.arange(45),  # p < k: generic fit
        ]
        for idx in subsets:
            want = fit_mn2ls(train.rows(idx)).coefficients
            got = base.fit(train, idx).coefficients
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        assert calls == [45]
        assert train._memo["row_gram"].shape == (45, 45)

    def test_full_data_fit_is_the_row_fit_on_all_rows(self, rng, monkeypatch):
        # n < p: the fit on all rows solves on order_factor(None), kept on the
        # dataset, and has the bits of the row fit on rows 0..n-1
        data, _ = random_dataset(rng, 30, 50)
        factored = []
        cho_factor = _lapack.cho_factor
        monkeypatch.setattr(
            _lapack, "cho_factor", lambda A: factored.append(A.shape) or cho_factor(A)
        )
        first = fit_mn2ls(data).coefficients
        assert factored == [(30, 30)]
        again = fit_mn2ls(data).coefficients
        assert factored == [(30, 30)]
        rows = BaseProcedure.mn2ls().row_fit(data, np.arange(30)).predictor(data).coefficients
        assert first.tobytes() == again.tobytes() == rows.tobytes()

    def test_rejected_row_gram_goes_straight_to_svd(self, rng, monkeypatch):
        train = _repeated_row_train(rng)
        idx = np.union1d(np.arange(38), [44])
        factored, solved = [], []
        cho_factor, lstsq = _lapack.cho_factor, np.linalg.lstsq
        monkeypatch.setattr(
            _lapack, "cho_factor", lambda A: factored.append(A.shape) or cho_factor(A)
        )
        monkeypatch.setattr(
            np.linalg, "lstsq", lambda *a, **k: solved.append(a[0].shape) or lstsq(*a, **k)
        )
        got = BaseProcedure.mn2ls().fit(train, idx).coefficients
        assert factored == [(39, 39)]
        assert solved == [(39, 40)]
        want, *_ = lstsq(train.features[idx], train.response[idx], rcond=1e-12 * 40)
        np.testing.assert_array_equal(got, want)

    def test_response_override(self, rng):
        train, _ = random_dataset(rng, 30, 50)
        idx = np.arange(5, 25)
        resid = rng.standard_normal(idx.size)
        got = BaseProcedure.mn2ls().fit(train, idx, response=resid).coefficients
        want = fit_mn2ls(Dataset(train.features[idx], resid)).coefficients
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_fit_on_rows_is_kept_per_procedure_rows_and_k(self, rng):
        train, _ = random_dataset(rng, 30, 50)
        order = rng.permutation(30)
        base = BaseProcedure.mn2ls()
        first = base.row_fit(train, order, k=12)
        assert base.row_fit(train, order, k=12) is first
        assert base.row_fit(train, order, k=13) is not first
        assert base.row_fit(train, order[::-1], k=12) is not first
        assert BaseProcedure.ridge(0.3).row_fit(train, order, k=12) is not first
        # residual fits carry their own responses and are not kept
        resid = rng.standard_normal(12)
        again = base.row_fit(train, order, response=resid, k=12)
        assert base.row_fit(train, order, response=resid, k=12) is not again

    @pytest.mark.parametrize(
        "base",
        [BaseProcedure.ridge(0.3), BaseProcedure.null(), BaseProcedure.mn1ls(),
         BaseProcedure.lasso(0.05)],
    )
    def test_other_kinds_fit_the_subset(self, rng, base):
        train, _ = random_dataset(rng, 20, 30)
        idx = np.array([0, 2, 3, 7, 11, 19])
        got = base.fit(train, idx).coefficients
        np.testing.assert_array_equal(got, base.fit(train.rows(idx)).coefficients)
        assert "row_gram" not in train._memo
