import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmono import BaseProcedure, Dataset, MonotonizeConfig, one_step, zero_step
from riskmono import _lapack, monotonize, predictors
from riskmono.core import child_seed, row_order, split_train_test
from riskmono.monotonize import (
    NULL_INDEX,
    ConfigError,
    bagged_ingredient,
    one_step_grid,
    onestep_ingredient,
    zero_step_grid,
)
from riskmono.predictors import RowFit, fit_mn2ls

from conftest import onestep_ingredient_closed_form, random_dataset, stack_datasets


class TestGrids:
    def test_zero_step_grid_matches_published_setup(self):
        # n = 1000, n_te = 100, block 50: 16 candidates, sizes 850 down to 100
        grid = zero_step_grid(1000, 100, 50)
        xis = [xi for xi, _ in grid]
        sizes = [k for _, k in grid]
        assert xis == list(range(1, 17))
        assert sizes[0] == 850 and sizes[-1] == 100
        assert all(k == 900 - 50 * xi for xi, k in grid)

    def test_one_step_grid_matches_published_setup(self):
        # n = 500, n_te = 80, block 42: xi1 ranges over {2, ..., 8}
        grid = one_step_grid(500, 80, 42)
        xi1s = sorted({xi1 for xi1, *_ in grid})
        assert xi1s == list(range(2, 9))
        for xi1, xi2, n1, n2 in grid:
            assert 0 <= xi2 < xi1
            assert n1 == 420 - 42 * xi1 and n2 == 42 * xi2

    def test_empty_grid_raises_with_sizes(self):
        with pytest.raises(ConfigError, match="n_tr=90"):
            zero_step_grid(100, 10, 50)
        with pytest.raises(ConfigError):
            one_step_grid(100, 10, 30)

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(30, 3000),
        te_frac=st.floats(0.05, 0.3),
        block_frac=st.floats(0.01, 0.2),
    )
    def test_grid_arithmetic_invariants(self, n, te_frac, block_frac):
        n_te = max(1, int(te_frac * n))
        block = max(1, int(block_frac * n))
        n_tr = n - n_te
        try:
            zgrid = zero_step_grid(n, n_te, block)
        except ConfigError:
            zgrid = None
        if zgrid is not None:
            sizes = [k for _, k in zgrid]
            assert all(k >= 1 for k in sizes)
            assert sorted(sizes, reverse=True) == sizes
            assert all(k == n_tr - xi * block for xi, k in zgrid)
        try:
            ogrid = one_step_grid(n, n_te, block)
        except ConfigError:
            return
        for _, _, n1, n2 in ogrid:
            assert n1 >= 1 and n1 + n2 <= n_tr

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MonotonizeConfig(M=0, block=10)
        with pytest.raises(ConfigError):
            MonotonizeConfig(block=10, nu=0.5)
        cfg = MonotonizeConfig(nu=0.5)
        assert cfg.resolve_block(100) == 10
        # neither block nor nu: block = floor(n^0.5)
        default = MonotonizeConfig()
        assert default.resolve_block(100) == 10 and default.resolve_block(99) == 9


class TestBaggedIngredient:
    def test_single_draw_equals_plain_fit(self, rng):
        data, _ = random_dataset(rng, 20, 4)
        base = BaseProcedure.mn2ls()
        bag = bagged_ingredient(base, data, 12, M=1, seed=5).predictor(data)
        sub = data.rows(row_order(data.n, 5, 0)[:12])
        np.testing.assert_array_equal(bag.coefficients, base.fit(sub).coefficients)

    def test_full_size_subsample_is_degenerate(self, rng):
        data, _ = random_dataset(rng, 15, 3)
        base = BaseProcedure.mn2ls()
        bag = bagged_ingredient(base, data, data.n, M=4, seed=6).predictor(data)
        np.testing.assert_allclose(
            bag.coefficients, base.fit(data).coefficients, atol=1e-12
        )

    def test_two_draws_average_exactly(self, rng):
        data, _ = random_dataset(rng, 25, 4)
        base = BaseProcedure.mn2ls()
        bag = bagged_ingredient(base, data, 15, M=2, seed=7).predictor(data)
        draws = [row_order(data.n, 7, j)[:15] for j in (0, 1)]
        parts = [base.fit(data.rows(idx)).coefficients for idx in draws]
        np.testing.assert_allclose(bag.coefficients, np.mean(parts, axis=0), atol=1e-12)


class TestOnestepIngredient:
    def test_empty_second_set_returns_base_fit(self, rng):
        data, _ = random_dataset(rng, 10, 3)
        base = BaseProcedure.mn2ls()
        out = onestep_ingredient(base, data, np.arange(10), np.arange(0)).predictor(data)
        np.testing.assert_array_equal(out.coefficients, base.fit(data).coefficients)

    def test_zero_residuals_mean_zero_adjustment(self, rng):
        # pilot interpolates d2 exactly -> adjustment vanishes
        beta0 = rng.standard_normal(5)
        X2 = rng.standard_normal((4, 5))
        d1 = Dataset(np.eye(5), beta0)  # mn2ls recovers beta0 exactly
        d2 = Dataset(X2, X2 @ beta0)
        train, idx1, idx2 = stack_datasets(d1, d2)
        out = onestep_ingredient(BaseProcedure.mn2ls(), train, idx1, idx2).predictor(train)
        np.testing.assert_allclose(out.coefficients, beta0, atol=1e-9)

    def test_matches_closed_form_representation(self, rng):
        base = BaseProcedure.mn2ls()
        for _ in range(20):
            n1 = int(rng.integers(3, 20))
            n2 = int(rng.integers(2, 15))
            p = int(rng.integers(2, 25))
            d1, _ = random_dataset(rng, n1, p)
            d2, _ = random_dataset(rng, n2, p)
            train, idx1, idx2 = stack_datasets(d1, d2)
            direct = onestep_ingredient(base, train, idx1, idx2).predictor(train).coefficients
            closed = onestep_ingredient_closed_form(base, d1, d2).coefficients
            assert np.max(np.abs(direct - closed)) < 1e-8


class TestZeroStep:
    def test_noiseless_recovery_selects_zero_risk(self, rng):
        beta0 = rng.standard_normal(3)
        data, _ = random_dataset(rng, 120, 3, sigma=0.0, beta0=beta0)
        cfg = MonotonizeConfig(block=20, n_te=20, seed=11)
        table, pred = zero_step(data, BaseProcedure.mn2ls(), cfg)
        assert table.selected_value() < 1e-18
        np.testing.assert_allclose(pred.coefficients, beta0, atol=1e-7)

    def test_null_candidate_bounds_selected_estimate(self, rng):
        # pure noise with p close to n: selection can't do worse than null
        X = rng.standard_normal((60, 55))
        data = Dataset(X, rng.standard_normal(60))
        cfg = MonotonizeConfig(block=8, n_te=12, include_null=True, seed=12)
        table, _ = zero_step(data, BaseProcedure.mn2ls(), cfg)
        assert table.selected_value() <= table.estimates()[NULL_INDEX]

    def test_reproducible(self, rng):
        data, _ = random_dataset(rng, 80, 10)
        cfg = MonotonizeConfig(block=10, n_te=16, seed=13)
        t1, p1 = zero_step(data, BaseProcedure.mn2ls(), cfg)
        t2, p2 = zero_step(data, BaseProcedure.mn2ls(), cfg)
        assert t1.estimates() == t2.estimates()
        np.testing.assert_array_equal(p1.coefficients, p2.coefficients)


class TestOneStep:
    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize(
        "base", (BaseProcedure.mn2ls(), BaseProcedure.lasso(0.5)), ids=lambda b: b.kind
    )
    def test_candidates_contain_zero_step_ingredients(self, rng, base, M):
        data, _ = random_dataset(rng, 90, 8)
        cfg = MonotonizeConfig(M=M, block=10, n_te=18, seed=14)
        ztable, _ = zero_step(data, base, cfg)
        otable, _ = one_step(data, base, cfg)
        zrows = {row.index: row for row in ztable.rows}
        orows = {row.index: row for row in otable.rows}
        shared = [xi for xi in zrows if xi != NULL_INDEX and xi >= 2]
        assert shared, "expected overlapping grid indices"
        for xi in shared:
            zrow, orow = zrows[xi], orows[(xi, 0)]
            assert orow.estimate.value == zrow.estimate.value
            assert orow.predictor.coefficients.tobytes() == zrow.predictor.coefficients.tobytes()

    def test_superset_gives_no_worse_selection(self, rng):
        # holds whenever zero-step does not select its xi=1 candidate, which
        # one-step's grid (xi1 >= 2) lacks; low SNR favors deep subsampling
        beta0 = rng.standard_normal(120) / np.sqrt(120)
        data, _ = random_dataset(rng, 90, 120, beta0=beta0)
        cfg = MonotonizeConfig(block=10, n_te=18, seed=15)
        ztable, _ = zero_step(data, BaseProcedure.mn2ls(), cfg)
        otable, _ = one_step(data, BaseProcedure.mn2ls(), cfg)
        assert ztable.selected != 1
        assert otable.selected_value() <= ztable.selected_value()

    def test_reproducible(self, rng):
        data, _ = random_dataset(rng, 70, 9)
        cfg = MonotonizeConfig(block=10, n_te=14, seed=16)
        t1, _ = one_step(data, BaseProcedure.mn2ls(), cfg)
        t2, _ = one_step(data, BaseProcedure.mn2ls(), cfg)
        assert t1.estimates() == t2.estimates()


class TestRowGram:
    @pytest.mark.parametrize("proc", [zero_step, one_step], ids=lambda f: f.__name__)
    def test_formed_once_per_training_split(self, rng, monkeypatch, proc):
        # p = 80 exceeds every subset size, so every mn2ls fit reads the gram
        data, _ = random_dataset(rng, 60, 80)
        grams = []
        row_gram = Dataset.row_gram
        monkeypatch.setattr(
            Dataset, "row_gram", lambda self: grams.append(row_gram(self)) or grams[-1]
        )
        proc(data, BaseProcedure.mn2ls(), MonotonizeConfig(M=2, block=8, n_te=10, seed=17))
        # every fit reads the same X X' of the one 50-row training split
        assert len(grams) > 1 and all(g is grams[0] for g in grams)
        assert grams[0].shape == (50, 50)


def _cv_train(data, cfg):
    """The training split cross_validate fits every candidate on."""
    train, _ = split_train_test(data, cfg.n_te, child_seed(cfg.seed, "cv-split"))
    return train


def _bagged_by_hand(base, train, n1, n2, M, seed, tail):
    # bag draw j of every candidate: order = row_order(train.n, seed, j); the
    # pilot is base.fit on order[:n1], a primal part.  For n2 > 0 its
    # residual is formed on the reverse order cut to the longest adjustment,
    # tail rows, and the ridgeless residual fit is mn2ls's own route on
    # order[::-1][:n2] with the first n2 entries of it, which gives weights
    # over the training rows (fewer rows than columns) or a primal part.  The
    # draws average part-wise, into weights and a primal part
    primals, weights = [], []
    for j in range(M):
        order = row_order(train.n, seed, j)
        pilot, w = base.fit(train.rows(order[:n1])).coefficients, None
        if n2 > 0:
            rows2 = order[::-1][:tail]
            resid = (train.response[rows2] - train.features[rows2] @ pilot)[:n2]
            adjust = BaseProcedure.mn2ls().row_fit(train, rows2, response=resid, k=n2)
            if adjust.weights is None:
                pilot = pilot + adjust.primal
            w = adjust.weights
        primals.append(pilot)
        weights.append(w)
    if all(w is None for w in weights):
        return RowFit(primal=np.mean(primals, axis=0))
    weights = [np.zeros(train.n) if w is None else w for w in weights]
    return RowFit(np.mean(weights, axis=0), np.mean(primals, axis=0))


def _assert_built_by_hand(table, train, sizes, base, M, seed):
    # the hand-built fits in family order, null row included, formed by the
    # one product that cross_validate forms the candidates' coefficients with
    tail = max(n2 for _, n2 in sizes.values())
    fits = [RowFit(primal=np.zeros(train.p)) if row.index == NULL_INDEX
            else _bagged_by_hand(base, train, *sizes[row.index], M, seed, tail)
            for row in table.rows]
    for row, want in zip(table.rows, RowFit.stack(fits, train)):
        np.testing.assert_array_equal(row.predictor.coefficients, want)


class TestGenericBase:
    """zero_step / one_step with a base other than mn2ls fit each candidate
    with base.fit on the rows of the documented row orders."""

    BASES = (BaseProcedure.ridge(0.3), BaseProcedure.null())

    @pytest.mark.parametrize("p", [12, 90])
    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize("base", BASES, ids=lambda b: b.kind)
    def test_zero_step_equals_hand_built_average(self, rng, base, M, p):
        data, _ = random_dataset(rng, 70, p)
        cfg = MonotonizeConfig(M=M, block=10, n_te=14, seed=21)
        table, _ = zero_step(data, base, cfg)
        sizes = {xi: (k, 0) for xi, k in zero_step_grid(data.n, cfg.n_te, cfg.block)}
        _assert_built_by_hand(table, _cv_train(data, cfg), sizes, base, M, cfg.seed)

    @pytest.mark.parametrize("p", [12, 90])
    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize("base", BASES, ids=lambda b: b.kind)
    def test_one_step_equals_hand_built_average(self, rng, base, M, p):
        data, _ = random_dataset(rng, 70, p)
        cfg = MonotonizeConfig(M=M, block=10, n_te=14, seed=22)
        table, _ = one_step(data, base, cfg)
        sizes = {(a, b): (n1, n2) for a, b, n1, n2 in one_step_grid(data.n, cfg.n_te, cfg.block)}
        _assert_built_by_hand(table, _cv_train(data, cfg), sizes, base, M, cfg.seed)


def _repeated_rows(rng, noise=0.0):
    # n = 60, p = 150, rows 30-59 repeat rows 0-29 (plus `noise`): most
    # training row orders hold a repeated pair, whose row gram is singular
    # (noise 0) or has a Cholesky diagonal spread far below CHOL_DIAG_RATIO
    X = rng.standard_normal((60, 150))
    y = rng.standard_normal(60)
    X[30:], y[30:] = X[:30] + noise * rng.standard_normal((30, 150)), y[:30]
    return Dataset(X, y)


def _holds_a_repeat(X):
    # some two rows closer than 1e-3; distinct Gaussian rows are ~17 apart
    d = np.sum(X**2, axis=1)
    dist2 = d[:, None] + d[None, :] - 2 * X @ X.T
    np.fill_diagonal(dist2, np.inf)
    return bool(dist2.min() < 1e-6)


def _lstsq(train, rows, y):
    X = train.features[rows]
    return np.linalg.lstsq(X, y, rcond=None)[0]


def _lstsq_by_hand(train, n1, n2, M, seed):
    # the nested draw with every ridgeless fit by numpy's SVD least squares
    coefs = []
    for j in range(M):
        order = row_order(train.n, seed, j)
        pilot = _lstsq(train, order[:n1], train.response[order[:n1]])
        if n2 > 0:
            idx2 = order[::-1][:n2]
            pilot = pilot + _lstsq(train, idx2, train.response[idx2] - train.features[idx2] @ pilot)
        coefs.append(pilot)
    return np.mean(coefs, axis=0)


class TestSharedFactor:
    """Every mn2ls candidate on fewer rows than columns solves with a block
    of one Cholesky factor per row order; it matches an independent SVD
    least-squares fit on the same rows to 1e-9, and a candidate whose rows
    hold a repeated pair, which the factor stops at or makes ill-conditioned,
    takes lstsq."""

    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize("proc", [zero_step, one_step], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("design", ["distinct", "repeated_rows", "near_repeated_rows"])
    def test_candidates_match_lstsq_on_the_same_rows(self, rng, monkeypatch, proc, M, design):
        data = {
            "distinct": lambda: random_dataset(rng, 70, 90)[0],
            "repeated_rows": lambda: _repeated_rows(rng),  # factorizations stop at a pivot
            "near_repeated_rows": lambda: _repeated_rows(rng, noise=3e-6),  # the check rejects
        }[design]()
        cfg = MonotonizeConfig(M=M, block=8, n_te=10, seed=23)
        factored, fits, owners = [], [], {}
        cho_factor, cholesky = _lapack.cho_factor, predictors._mn2ls_cholesky
        order_factor = Dataset.order_factor
        monkeypatch.setattr(
            _lapack, "cho_factor", lambda A, **kw: factored.append(A.shape) or cho_factor(A, **kw)
        )

        def recorded_factor(split, order):
            U = order_factor(split, order)
            owners[id(U)] = (split, np.asarray(order))
            return U

        def recorded(U, y, k):
            w = cholesky(U, y, k)
            # a fit in row space on the leading k rows of U's order
            split, order = owners[id(U)]
            fits.append((_holds_a_repeat(split.features[order[:k]]), w is None))
            return w

        monkeypatch.setattr(Dataset, "order_factor", recorded_factor)
        monkeypatch.setattr(predictors, "_mn2ls_cholesky", recorded)
        table, _ = proc(data, BaseProcedure.mn2ls(), cfg)
        monkeypatch.undo()

        train = _cv_train(data, cfg)
        if proc is zero_step:
            sizes = {xi: (k, 0) for xi, k in zero_step_grid(data.n, cfg.n_te, cfg.block)}
        else:
            sizes = {(a, b): (n1, n2)
                     for a, b, n1, n2 in one_step_grid(data.n, cfg.n_te, cfg.block)}
        for row in table.rows:
            assert row.error is None
            if row.index != NULL_INDEX:
                want = _lstsq_by_hand(train, *sizes[row.index], M, cfg.seed)
                np.testing.assert_allclose(row.predictor.coefficients, want, rtol=0, atol=1e-9)

        # one factor per row order, of the rows the grids read: order_j cut
        # to zero-step's largest candidate, n_tr - block rows, for the pilots,
        # then its reverse cut to the longest adjustment for the adjustments
        head, tail = train.n - cfg.block, max(n2 for _, n2 in sizes.values())
        assert head < data.p - 1 and tail < head
        want = [(head, head)] * M + ([(tail, tail)] * M if proc is one_step else [])
        assert factored == want
        # one fit per distinct pilot size and per adjustment, in each draw:
        # the pilot of (xi1, xi2) is the kept fit of (xi1, 0)
        pilots = {n1 for n1, _ in sizes.values()}
        adjustments = sum(n2 > 0 for _, n2 in sizes.values())
        assert len(fits) == M * (len(pilots) + adjustments)
        # a fit on rows holding a repeated pair never keeps the factor, and
        # every other fit solves on it: a failed factorization keeps the block
        # before its failed pivot, and the check reads only the leading k
        # diagonal entries
        assert all(fallback == dup for dup, fallback in fits)
        if design == "distinct":
            assert not any(dup for dup, _ in fits)
        else:
            assert any(dup for dup, _ in fits) and any(not dup for dup, _ in fits)


def _primal_mn2ls(train, rows, y):
    # the coefficient-space fit: gather the rows, solve their row gram by
    # Cholesky (fewer rows than columns) and return X' w
    X = train.features[rows]
    if len(rows) >= train.p:
        return fit_mn2ls(Dataset(X, y)).coefficients
    return X.T @ scipy.linalg.cho_solve(scipy.linalg.cho_factor(X @ X.T), y)


def _primal_by_hand(train, n1, n2, M, seed):
    # every ridgeless fit in coefficient space, with residual y2 - X2 beta1
    coefs = []
    for j in range(M):
        order = row_order(train.n, seed, j)
        beta = _primal_mn2ls(train, order[:n1], train.response[order[:n1]])
        if n2 > 0:
            idx2 = order[::-1][:n2]
            beta = beta + _primal_mn2ls(train, idx2, train.response[idx2] - train.features[idx2] @ beta)
        coefs.append(beta)
    return np.mean(coefs, axis=0)


class TestRowSpace:
    """mn2ls candidates fit in the rows of the training split: the same
    coefficients as the fits in coefficient space, from one draw of each row
    order per training split."""

    @pytest.mark.parametrize("p", [40, 90])
    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize("proc", [zero_step, one_step], ids=lambda f: f.__name__)
    def test_candidates_match_the_coefficient_space_route(self, rng, proc, M, p):
        # p = 40 puts the larger pilots on k >= p rows (primal part), p = 90
        # puts every fit in row space
        data, _ = random_dataset(rng, 70, p)
        cfg = MonotonizeConfig(M=M, block=10, n_te=14, seed=24)
        table, _ = proc(data, BaseProcedure.mn2ls(), cfg)
        train = _cv_train(data, cfg)
        if proc is zero_step:
            sizes = {xi: (k, 0) for xi, k in zero_step_grid(data.n, cfg.n_te, cfg.block)}
        else:
            sizes = {(a, b): (n1, n2)
                     for a, b, n1, n2 in one_step_grid(data.n, cfg.n_te, cfg.block)}
        for row in table.rows:
            if row.index != NULL_INDEX:
                want = _primal_by_hand(train, *sizes[row.index], M, cfg.seed)
                err = np.max(np.abs(row.predictor.coefficients - want))
                assert err <= 1e-13 * np.max(np.abs(want)), (row.index, err)

    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize("proc", [zero_step, one_step], ids=lambda f: f.__name__)
    def test_each_order_is_drawn_once_per_training_split(self, rng, monkeypatch, proc, M):
        data, _ = random_dataset(rng, 70, 90)
        cfg = MonotonizeConfig(M=M, block=10, n_te=14, seed=25)
        drawn = []
        draw = monotonize.row_order
        monkeypatch.setattr(
            monotonize, "row_order", lambda n, seed, j: drawn.append((n, seed, j)) or draw(n, seed, j)
        )
        proc(data, BaseProcedure.mn2ls(), cfg)
        assert drawn == [(data.n - cfg.n_te, cfg.seed, j) for j in range(M)]

    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize(
        "base", (BaseProcedure.mn2ls(), BaseProcedure.ridge(0.3)), ids=lambda b: b.kind
    )
    def test_one_residual_per_pilot_and_draw(self, rng, monkeypatch, base, M):
        # every adjustment of one pilot takes the leading entries of the one
        # residual kept for that pilot in that draw
        data, _ = random_dataset(rng, 70, 90)
        cfg = MonotonizeConfig(M=M, block=10, n_te=14, seed=26)
        calls = []
        fitted = RowFit.fitted
        monkeypatch.setattr(
            RowFit, "fitted", lambda self, d, rows: calls.append(len(rows)) or fitted(self, d, rows)
        )
        one_step(data, base, cfg)
        grid = one_step_grid(data.n, cfg.n_te, cfg.block)
        pilots = {n1 for _, _, n1, _ in grid}
        assert calls == [max(n2 for *_, n2 in grid)] * (M * len(pilots))
