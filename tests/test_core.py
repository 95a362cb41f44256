import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmono.core import (
    Dataset,
    InvalidSplitError,
    InvalidSubsampleError,
    LinearPredictor,
    child_seed,
    disjoint_pair_indices,
    loss_values,
    split_train_test,
    subsample_indices,
)
from riskmono.datagen import ConditionalSampler, DataModel


def make_data(n, p=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, p)), rng.standard_normal(n))


class TestDataset:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((4, 2)), np.zeros(3))

    def test_non_finite_rejected(self):
        X = np.zeros((3, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            Dataset(X, np.zeros(3))
        y = np.zeros(3)
        y[1] = np.inf
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), y)

    def test_arrays_are_immutable(self):
        data = make_data(5)
        with pytest.raises(ValueError):
            data.features[0, 0] = 1.0

    def test_csv_roundtrip(self, tmp_path):
        data = make_data(6, p=4, seed=1)
        path = tmp_path / "d.csv"
        data.to_csv(path)
        back = Dataset.from_csv(path)
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.response, data.response)


def indexed_data(n, p=2):
    """Dataset whose response is the row index, so a split shows its rows."""
    return Dataset(np.zeros((n, p)), np.arange(n, dtype=np.float64))


class TestSplit:
    def test_sizes_and_partition(self):
        train, test = split_train_test(indexed_data(10), 2, seed=7)
        assert train.n == 8 and test.n == 2
        union = np.union1d(train.response, test.response)
        np.testing.assert_array_equal(union, np.arange(10))

    def test_full_test_rejected(self):
        data = make_data(5)
        with pytest.raises(InvalidSplitError):
            split_train_test(data, 5, seed=0)
        with pytest.raises(InvalidSplitError):
            split_train_test(data, 0, seed=0)

    def test_determinism(self):
        data = make_data(20)
        tr1, te1 = split_train_test(data, 6, seed=42)
        tr2, te2 = split_train_test(data, 6, seed=42)
        np.testing.assert_array_equal(tr1.features, tr2.features)
        np.testing.assert_array_equal(tr1.response, tr2.response)
        np.testing.assert_array_equal(te1.features, te2.features)
        np.testing.assert_array_equal(te1.response, te2.response)

    @settings(deadline=None, max_examples=50)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32))
    def test_partition_property(self, n, seed):
        n_te = max(1, n // 3)
        train, test = split_train_test(indexed_data(n), n_te, seed)
        assert test.n == n_te
        assert np.intersect1d(train.response, test.response).size == 0
        assert train.n + test.n == n
        # each side keeps its rows in ascending order
        assert np.all(np.diff(train.response) > 0) and np.all(np.diff(test.response) > 0)


class TestSubsample:
    def test_k_equals_n_returns_whole_dataset(self):
        data = make_data(8)
        sub = data.rows(subsample_indices(8, 8, seed=3))
        np.testing.assert_array_equal(sub.features, data.features)
        np.testing.assert_array_equal(sub.response, data.response)

    def test_determinism(self):
        data = make_data(8)
        a = data.rows(subsample_indices(8, 3, seed=1))
        b = data.rows(subsample_indices(8, 3, seed=1))
        np.testing.assert_array_equal(a.features, b.features)

    def test_out_of_range_rejected(self):
        for k in (0, 9):
            with pytest.raises(InvalidSubsampleError):
                subsample_indices(8, k, seed=0)

    def test_row_frequencies_uniform(self):
        # each row should appear with frequency k/n up to a 3-sigma binomial band
        n, k, draws = 12, 4, 600
        data = make_data(n)
        counts = np.zeros(n)
        for s in range(draws):
            sub = data.rows(subsample_indices(n, k, seed=s))
            for row in sub.response:
                counts[np.where(data.response == row)[0][0]] += 1
        expected = draws * k / n
        band = 3 * np.sqrt(draws * (k / n) * (1 - k / n))
        assert np.all(np.abs(counts - expected) <= band)


class TestDisjointPair:
    def test_partition_of_distinct_rows(self):
        data = make_data(10)
        d1, d2 = map(data.rows, disjoint_pair_indices(10, 6, 4, seed=5))
        merged = np.concatenate([d1.response, d2.response])
        assert np.unique(merged).size == 10

    def test_empty_second_set(self):
        data = make_data(10)
        d1, d2 = map(data.rows, disjoint_pair_indices(10, 6, 0, seed=5))
        assert d1.n == 6 and d2.n == 0

    def test_overflow_rejected(self):
        with pytest.raises(InvalidSubsampleError):
            disjoint_pair_indices(10, 8, 4, seed=0)


def squared_error(y, yhat):
    # one row with feature 1, so the prediction is the coefficient itself
    return loss_values(LinearPredictor([yhat]), Dataset([[1.0]], [y]))[0]


class TestLoss:
    @pytest.mark.parametrize("y,yhat,want", [(3, 3, 0), (2, 0, 4), (-1, 1, 4)])
    def test_squared_error_values(self, y, yhat, want):
        assert squared_error(y, yhat) == want

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            squared_error(np.nan, 0.0)
        with pytest.raises(ValueError):
            squared_error(0.0, np.inf)

    def test_row_order(self):
        data = Dataset([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 0.0, 5.0])
        losses = loss_values(LinearPredictor([1.0, 2.0]), data)
        np.testing.assert_array_equal(losses, [0.0, 4.0, 4.0])

    @settings(deadline=None, max_examples=100)
    @given(
        y=st.floats(-1e6, 1e6, allow_nan=False),
        delta=st.one_of(st.just(0.0), st.floats(1e-9, 1e6), st.floats(-1e6, -1e-9)),
    )
    def test_nonnegative_zero_iff_equal(self, y, delta):
        yhat = y + delta  # offsets this size square without underflow
        loss = squared_error(y, yhat)
        assert loss >= 0
        assert (loss == 0) == (y == yhat)


class TestChildSeed:
    def test_stable_and_distinct(self):
        a = child_seed(1, "bag", 0)
        assert a == child_seed(1, "bag", 0)
        assert a != child_seed(1, "bag", 1)
        assert a != child_seed(2, "bag", 0)
        assert a != child_seed(1, "pair", 0)

    def test_fits_in_63_bits(self):
        for i in range(100):
            assert 0 <= child_seed(12345, "t", i) < 2**63


def test_array_holders_compare_by_identity():
    # field-wise == would compare numpy arrays and raise "the truth value of
    # an array ... is ambiguous"; inside a fit that ValueError would count as
    # a failed candidate
    X, y, beta = np.ones((3, 2)), np.arange(3.0), np.ones(2)
    model = DataModel.dense(2, 1.0, 1.0)
    for make in (
        lambda: Dataset(X, y),
        lambda: LinearPredictor(beta),
        lambda: ConditionalSampler(model, beta),
    ):
        a, b = make(), make()
        assert (a == b) is False
        assert a != b
        assert a == a
