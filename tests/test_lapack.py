import ctypes
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

from riskmono import BaseProcedure, Dataset, MonotonizeConfig, _lapack, sweep, zero_step
from riskmono.predictors import _mn2ls_cholesky, fit_mn2ls

from test_sweep import small_cfg

SIZES = (1, 2, 3, 17, 64, 100, 257, 400)


def spd(n, seed):
    X = np.random.default_rng(seed).standard_normal((n + 3, n))
    return X.T @ X / (n + 3) + 0.05 * np.eye(n)


def homotopy_gram(X, active):
    # the active gram as _lasso_homotopy builds it: one column of X'X/m per
    # joining variable, then the active rows of those columns
    m, p = X.shape
    gram = np.empty((p, len(active)), order="F")
    for i, j in enumerate(active):
        gram[:, i] = X.T @ X[:, j] / m
    return gram[np.array(active), :]


class TestBitIdentity:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("nrhs", [1, 2])
    def test_matches_scipy_cho_factor_and_cho_solve(self, n, nrhs):
        A = spd(n, n)
        B = np.random.default_rng(n + 1).standard_normal((n, nrhs) if nrhs > 1 else n)
        A_before, B_before = A.copy(), B.copy()
        U = _lapack.cho_factor(A)
        X = _lapack.cho_solve(U, B)
        c, lower = scipy.linalg.cho_factor(A, check_finite=False)
        assert not lower and U.tobytes(order="A") == c.tobytes(order="A")
        assert np.array_equal(U, c)
        ref = scipy.linalg.cho_solve((c, lower), B, check_finite=False)
        assert X.shape == ref.shape and np.array_equal(X, ref)
        assert np.array_equal(A, A_before) and np.array_equal(B, B_before)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("nrhs", [1, 2])
    def test_matches_scipy_solve_pos(self, n, nrhs):
        A = spd(n, 100 + n)
        B = np.random.default_rng(n).standard_normal((n, nrhs) if nrhs > 1 else n)
        X = _lapack.cho_solve(_lapack.cho_factor(A), B)
        ref = scipy.linalg.solve(A, B, assume_a="pos")
        assert X.shape == ref.shape
        if n > 1:
            assert np.array_equal(X, ref)
        else:
            # scipy divides a 1 x 1 system directly; the factor divides twice
            # by sqrt(a), which can differ in the last bit
            np.testing.assert_allclose(X, ref, rtol=4 * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("nrhs", [1, 2])
    def test_leading_block_solve_matches_a_copy_of_the_block(self, n, nrhs):
        U = _lapack.cho_factor(spd(n, 200 + n))
        rng = np.random.default_rng(n)
        for k in sorted({0, 1, n // 2, n - 1, n}):
            B = rng.standard_normal((k, nrhs) if nrhs > 1 else k)
            got = _lapack.solve_leading(U, B, k)
            want = _lapack.solve_leading(np.array(U[:k, :k], order="F"), B, k)
            assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("k", [1, 30, 150, 400])
    @pytest.mark.parametrize("nrhs", [1, 2])
    def test_leading_block_solve_is_two_triangular_solves(self, k, nrhs):
        # U_k' z = b, then U_k x = z, on the leading block of a 400-row
        # factor: in place, with leading dimension 400 where k < 400
        U = _lapack.cho_factor(spd(400, 7))
        B = np.random.default_rng(k).standard_normal((k, nrhs) if nrhs > 1 else k)
        B_before = B.copy()
        got = _lapack.solve_leading(U, B, k)
        block = U[:k, :k]
        z = scipy.linalg.solve_triangular(block, B, trans="T", check_finite=False)
        want = scipy.linalg.solve_triangular(block, z, check_finite=False)
        assert got.shape == want.shape and np.array_equal(B, B_before)
        # scipy's own OpenBLAS can round a triangular solve differently from
        # numpy's, so the two agree to the forward error bound of the solves
        # in double precision: k eps cond(U_k'U_k) relative, in norm
        bound = k * np.finfo(float).eps * np.linalg.cond(block) ** 2
        assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_memory_order_of_the_input_does_not_matter(self, order):
        A = np.asarray(spd(50, 3), order=order)
        U = _lapack.cho_factor(A)
        assert U.flags.f_contiguous
        assert np.array_equal(U, scipy.linalg.cho_factor(A, check_finite=False)[0])

    def test_overwrite_a_factors_a_fortran_array_in_place(self):
        A = np.asfortranarray(spd(50, 4))
        want = scipy.linalg.cho_factor(A.copy(order="F"), check_finite=False)[0]
        U = _lapack.cho_factor(A, overwrite_a=True)
        assert U is A and np.array_equal(U, want)
        # anything else is copied: a C-order array, and a read-only one
        for B in (spd(50, 4), np.asfortranarray(spd(50, 4))):
            B.setflags(write=B.flags.c_contiguous)
            before = B.copy()
            U = _lapack.cho_factor(B, overwrite_a=True)
            assert U is not B and np.array_equal(B, before) and np.array_equal(U, want)

    @pytest.mark.parametrize("p", [30, 90])
    def test_order_factor_is_the_factor_of_the_gathered_gram(self, p):
        # the block gathered by `take` and factored in place has the bits of
        # scipy's factor of the np.ix_ gather, strict lower triangle included
        rng = np.random.default_rng(p)
        data = Dataset(rng.standard_normal((60, p)), rng.standard_normal(60))
        order = rng.permutation(60)[:45]
        head = order[: p - 1]
        gram = data.row_gram()[np.ix_(head, head)]
        want = scipy.linalg.cho_factor(gram, check_finite=False)[0]
        U = data.order_factor(order)
        assert U.shape == want.shape and U.tobytes(order="A") == want.tobytes(order="A")

    @pytest.mark.parametrize("seed", range(4))
    def test_homotopy_gram_built_column_by_column(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((60, 200))
        active = [int(j) for j in rng.choice(200, size=45, replace=False)]
        G = homotopy_gram(X, active)
        rhs = np.column_stack([rng.standard_normal(45), np.sign(rng.standard_normal(45))])
        U = _lapack.cho_factor(G)
        c = scipy.linalg.cho_factor(G, check_finite=False)
        assert np.array_equal(U, c[0])
        assert np.array_equal(
            _lapack.cho_solve(U, rhs), scipy.linalg.cho_solve(c, rhs, check_finite=False)
        )


class TestFailures:
    def test_indefinite_matrix_raises_linalg_error(self):
        with pytest.raises(scipy.linalg.LinAlgError, match="2-th leading minor"):
            _lapack.cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_indefinite_gram_falls_back_to_lstsq(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((8, 20))
        X[3] = 0.0  # a zero row: the row gram has a zero pivot, dpotrf stops
        y = rng.standard_normal(8)
        with pytest.raises(scipy.linalg.LinAlgError):
            _lapack.cho_factor(X @ X.T)
        assert _mn2ls_cholesky(Dataset(X, y).order_factor(None), y, 8) is None
        # the shared factor of these rows stops at pivot 4: it keeps the
        # leading 3 x 3 block, which rejects every fit on 4 or more rows and
        # still solves the fit on rows 0-2
        U = Dataset(X, y).order_factor(np.arange(8))
        assert U.shape == (3, 3) and _mn2ls_cholesky(U, y, 8) is None
        assert _mn2ls_cholesky(U, y[:4], 4) is None
        np.testing.assert_allclose(X[:3].T @ _mn2ls_cholesky(U, y[:3], 3),
                                   np.linalg.pinv(X[:3]) @ y[:3], rtol=1e-10, atol=1e-12)
        beta = fit_mn2ls(Dataset(X, y)).coefficients
        np.testing.assert_allclose(beta, np.linalg.pinv(X) @ y, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("n, zero", [(5, 0), (40, 17), (300, 200)])
    def test_failed_factor_keeps_its_leading_block(self, n, zero):
        # a zero row makes pivot zero + 1 exactly zero; dpotrf has completed
        # the factor of the leading block by then, blocked or not
        X = np.random.default_rng(n).standard_normal((n, n + 10))
        X[zero] = 0.0
        G = X @ X.T
        with pytest.raises(_lapack.NotPositiveDefinite, match=f"{zero + 1}-th leading minor") as exc:
            _lapack.cho_factor(G)
        leading = exc.value.leading
        assert isinstance(exc.value, scipy.linalg.LinAlgError)
        assert leading.shape == (zero, zero) and leading.flags.f_contiguous
        if zero:
            want = scipy.linalg.cho_factor(G[:zero, :zero], check_finite=False)[0]
            np.testing.assert_allclose(np.triu(leading), np.triu(want), rtol=0,
                                       atol=1e-12 * np.abs(want).max())

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="square"):
            _lapack.cho_factor(np.ones((2, 3)))
        with pytest.raises(ValueError, match="incompatible"):
            _lapack.cho_solve(np.eye(3), np.ones(4))
        with pytest.raises(ValueError, match="incompatible"):
            _lapack.solve_leading(np.eye(3), np.ones(3), 2)
        with pytest.raises(ValueError, match="incompatible"):
            _lapack.solve_leading(np.eye(3), np.ones((2, 2, 1)), 2)
        with pytest.raises(ValueError, match="square"):
            _lapack.solve_leading(np.ones((3, 2)), np.ones(2), 2)
        for k in (-1, 4):
            with pytest.raises(ValueError, match="outside 0..3"):
                _lapack.solve_leading(np.eye(3), np.ones(3), k)

    def test_leading_block_with_a_zero_diagonal_entry_is_singular(self):
        U = np.triu(np.ones((4, 4)))
        U[2, 2] = 0.0
        np.testing.assert_array_equal(_lapack.solve_leading(U, np.ones(2), 2), [1.0, 0.0])
        with pytest.raises(np.linalg.LinAlgError, match="diagonal entry 3 is zero"):
            _lapack.solve_leading(U, np.ones(3), 3)

    def test_leading_block_solve_reports_an_illegal_argument(self, monkeypatch):
        def bad_trtrs(uplo, trans, diag, n, nrhs, a, lda, b, ldb, info):
            info.value = -7

        routine = _lapack._routine
        monkeypatch.setattr(_lapack, "_routine",
                            lambda name: bad_trtrs if name == "dtrtrs" else routine(name))
        with pytest.raises(_lapack.LapackArgumentError, match="argument 7 of dtrtrs"):
            _lapack.solve_leading(np.eye(3), np.ones(2), 2)
        # the fit does not take it for a failed solve
        rng = np.random.default_rng(1)
        with pytest.raises(_lapack.LapackArgumentError):
            fit_mn2ls(Dataset(rng.standard_normal((5, 9)), rng.standard_normal(5)))

    def test_illegal_argument_is_not_a_numerical_failure(self):
        # LAPACK's info < 0 is a programming error: cross-validation and the
        # sweep catch ValueError, ArithmeticError and RuntimeError only
        assert not issubclass(_lapack.LapackArgumentError, (ValueError, ArithmeticError, RuntimeError))
        with pytest.raises(_lapack.LapackArgumentError, match="argument 4 of dpotrf"):
            _lapack._check(ctypes.c_int(-4), "dpotrf")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_illegal_argument_propagates_through_the_sweep(self, monkeypatch, threads):
        def bad_potrf(uplo, n, a, lda, info):
            info.value = -4

        routine = _lapack._routine
        monkeypatch.setattr(_lapack, "_routine",
                            lambda name: bad_potrf if name == "dpotrf" else routine(name))
        monkeypatch.setenv("RISKMONO_THREADS", threads)
        with pytest.raises(_lapack.LapackArgumentError):
            sweep.run_sweep(small_cfg(procedure="zero", reps=2))
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal((40, 60)), rng.standard_normal(40))
        with pytest.raises(_lapack.LapackArgumentError):
            zero_step(data, BaseProcedure.mn2ls(), MonotonizeConfig(block=8, n_te=8))


    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_missing_routine_propagates_through_the_sweep(self, monkeypatch, threads):
        # a numpy whose OpenBLAS lacks a routine fails at the first fit, naming
        # it; ImportError is not a candidate or cell failure, so it propagates
        # drop the bound routines so that the next fit looks the symbols up;
        # the real ones bind again at the first call after the test
        _lapack._routine.cache_clear()
        monkeypatch.setattr(_lapack, "_SYMBOL", "riskmono_missing_{}_64_")
        monkeypatch.setenv("RISKMONO_THREADS", threads)
        message = "riskmono_missing_dpotrf_64_ from numpy's bundled OpenBLAS; this numpy links LAPACK"
        with pytest.raises(ImportError, match=message):
            sweep.run_sweep(small_cfg(procedure="zero", reps=2))
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal((40, 60)), rng.standard_normal(40))
        with pytest.raises(ImportError, match=message):
            zero_step(data, BaseProcedure.mn2ls(), MonotonizeConfig(block=8, n_te=8))


class TestGilRelease:
    @pytest.mark.parametrize("name", list(_lapack._ARGTYPES))
    def test_prototypes_are_plain_c_calls(self, name):
        # ctypes drops the GIL around a CFUNCTYPE call and keeps it around a
        # PYFUNCTYPE one; the flag is what tells them apart
        flags = _lapack._routine(name)._flags_
        assert flags & ctypes._FUNCFLAG_PYTHONAPI == 0
        assert flags & ctypes._FUNCFLAG_CDECL


class TestBlasPin:
    def test_pin_sets_one_thread_and_restores(self):
        setter = _lapack._set_threads
        if setter is None:
            pytest.skip("numpy's OpenBLAS has no openblas_set_num_threads_local")
        before = setter(2)  # 2 threads, so the pin shows
        try:
            with _lapack.one_blas_thread():
                with _lapack.one_blas_thread():
                    pass
                # the inner block ended but the outer one still holds the pin
                assert setter(1) == 1
            assert setter(2) == 2
        finally:
            setter(before)

    def test_overlapping_pins_from_many_threads(self):
        # the count is per process, so the pin depth is shared state: a lost
        # update would unpin inside a block or leave the pin set after all end
        setter = _lapack._set_threads
        if setter is None:
            pytest.skip("numpy's OpenBLAS has no openblas_set_num_threads_local")
        before = setter(2)
        broken = []

        def pin_often():
            for _ in range(300):
                with _lapack.one_blas_thread():
                    if setter(1) != 1:
                        broken.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pin_often) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not broken and _lapack._pin_depth == 0
            assert setter(2) == 2
        finally:
            sys.setswitchinterval(interval)
            setter(before)

    @pytest.mark.parametrize("threads, pinned", [("1", 0), ("2", 1)])
    def test_one_worker_leaves_blas_alone(self, monkeypatch, threads, pinned):
        entered = []

        @contextmanager
        def record():
            entered.append(1)
            yield

        monkeypatch.setattr(sweep, "one_blas_thread", record)
        monkeypatch.setenv("RISKMONO_THREADS", threads)
        sweep.run_sweep(small_cfg(reps=2))
        assert len(entered) == pinned
