import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmono import BaseProcedure, Dataset, MonotonizeConfig, one_step, zero_step
from riskmono.core import child_seed, disjoint_pair_indices, split_train_test, subsample_indices
from riskmono.monotonize import (
    NULL_INDEX,
    ConfigError,
    bagged_ingredient,
    one_step_grid,
    onestep_ingredient,
    zero_step_grid,
)

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
        bag = bagged_ingredient(base, data, 12, M=1, seed=5)
        sub = data.rows(subsample_indices(data.n, 12, child_seed(5, "bag", 0)))
        np.testing.assert_array_equal(bag.coefficients, base.fit(sub).coefficients)

    def test_full_size_subsample_is_degenerate(self, rng):
        data, _ = random_dataset(rng, 15, 3)
        base = BaseProcedure.mn2ls()
        bag = bagged_ingredient(base, data, data.n, M=4, seed=6)
        np.testing.assert_allclose(
            bag.coefficients, base.fit(data).coefficients, atol=1e-12
        )

    def test_two_draws_average_exactly(self, rng):
        data, _ = random_dataset(rng, 25, 4)
        base = BaseProcedure.mn2ls()
        bag = bagged_ingredient(base, data, 15, M=2, seed=7)
        draws = [subsample_indices(data.n, 15, child_seed(7, "bag", j)) for j in (0, 1)]
        parts = [base.fit(data.rows(idx)).coefficients for idx in draws]
        np.testing.assert_allclose(bag.coefficients, np.mean(parts, axis=0), atol=1e-12)


class TestOnestepIngredient:
    def test_empty_second_set_returns_base_fit(self, rng):
        data, _ = random_dataset(rng, 10, 3)
        base = BaseProcedure.mn2ls()
        out = onestep_ingredient(base, data, np.arange(10), np.arange(0))
        np.testing.assert_array_equal(out.coefficients, base.fit(data).coefficients)

    def test_zero_residuals_mean_zero_adjustment(self, rng):
        # pilot interpolates d2 exactly -> adjustment vanishes
        beta0 = rng.standard_normal(5)
        X2 = rng.standard_normal((4, 5))
        d1 = Dataset(np.eye(5), beta0)  # mn2ls recovers beta0 exactly
        d2 = Dataset(X2, X2 @ beta0)
        out = onestep_ingredient(BaseProcedure.mn2ls(), *stack_datasets(d1, d2))
        np.testing.assert_allclose(out.coefficients, beta0, atol=1e-9)

    def test_matches_closed_form_representation(self, rng):
        base = BaseProcedure.mn2ls()
        for _ in range(20):
            n1 = int(rng.integers(3, 20))
            n2 = int(rng.integers(2, 15))
            p = int(rng.integers(2, 25))
            d1, _ = random_dataset(rng, n1, p)
            d2, _ = random_dataset(rng, n2, p)
            direct = onestep_ingredient(base, *stack_datasets(d1, d2)).coefficients
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


def _bagged_by_hand(base, train, k, M, seed):
    # zero-step ingredient: base.fit on M subsamples under child seeds "bag"
    return np.mean(
        [
            base.fit(train.rows(subsample_indices(train.n, k, child_seed(seed, "bag", j))))
            .coefficients
            for j in range(M)
        ],
        axis=0,
    )


def _onestep_by_hand(base, train, n1, n2, M, seed):
    # one-step ingredient: base.fit on the first set of each disjoint pair
    # (child seeds "pair"); the ridgeless residual fit is mn2ls's own route
    coefs = []
    for j in range(M):
        idx1, idx2 = disjoint_pair_indices(train.n, n1, n2, child_seed(seed, "pair", j))
        pilot = base.fit(train.rows(idx1)).coefficients
        resid = train.response[idx2] - train.features[idx2] @ pilot
        coefs.append(pilot + BaseProcedure.mn2ls().fit(train, idx2, response=resid).coefficients)
    return np.mean(coefs, axis=0)


class TestGenericBase:
    """zero_step / one_step with a base other than mn2ls fit each candidate
    with base.fit on the rows the documented child seeds select."""

    BASES = (BaseProcedure.ridge(0.3), BaseProcedure.null())

    @pytest.mark.parametrize("p", [12, 90])
    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize("base", BASES, ids=lambda b: b.kind)
    def test_zero_step_equals_hand_built_average(self, rng, base, M, p):
        data, _ = random_dataset(rng, 70, p)
        cfg = MonotonizeConfig(M=M, block=10, n_te=14, seed=21)
        table, _ = zero_step(data, base, cfg)
        train = _cv_train(data, cfg)
        grid = dict(zero_step_grid(data.n, cfg.n_te, cfg.block))
        for row in table.rows:
            if row.index == NULL_INDEX:
                continue
            want = _bagged_by_hand(
                base, train, grid[row.index], M, child_seed(cfg.seed, "zs", row.index)
            )
            np.testing.assert_array_equal(row.predictor.coefficients, want)

    @pytest.mark.parametrize("p", [12, 90])
    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize("base", BASES, ids=lambda b: b.kind)
    def test_one_step_equals_hand_built_average(self, rng, base, M, p):
        data, _ = random_dataset(rng, 70, p)
        cfg = MonotonizeConfig(M=M, block=10, n_te=14, seed=22)
        table, _ = one_step(data, base, cfg)
        train = _cv_train(data, cfg)
        grid = {(a, b): (n1, n2) for a, b, n1, n2 in one_step_grid(data.n, cfg.n_te, cfg.block)}
        for row in table.rows:
            if row.index == NULL_INDEX:
                continue
            (xi1, xi2), (n1, n2) = row.index, grid[row.index]
            if xi2 == 0:
                want = _bagged_by_hand(base, train, n1, M, child_seed(cfg.seed, "zs", xi1))
            else:
                want = _onestep_by_hand(
                    base, train, n1, n2, M, child_seed(cfg.seed, "os", xi1, xi2)
                )
            np.testing.assert_array_equal(row.predictor.coefficients, want)
