# ctypes access to the OpenBLAS that numpy bundles: the SPD Cholesky factor
# and solve, called without the GIL so that sweep workers overlap, and a pin
# of that OpenBLAS to one thread while a pool runs.  numpy's `_umath_linalg`
# links it, and a handle to that extension resolves its exported symbols:
# the ILP64 LAPACK routines under numpy's `scipy_` prefix and `64_` suffix,
# and the OpenBLAS thread controls under their own names.  The routines are
# bound at the first call that needs them, so `import riskmono` loads numpy
# only, and nothing in riskmono loads scipy.

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg


class LapackArgumentError(Exception):
    """LAPACK rejected an argument.  A programming error, so deliberately not
    a ValueError: cross-validation and the sweep must not count it as a
    failed candidate or cell."""


_OPENBLAS = ctypes.CDLL(_umath_linalg.__file__)
_SYMBOL = "scipy_{}_64_"  # the name numpy's OpenBLAS exports a LAPACK routine under

_int = ctypes.POINTER(ctypes.c_int64)
_array = ctypes.c_void_p
# dpotrf(uplo, n, a, lda, info); dpotrs(uplo, n, nrhs, a, lda, b, ldb, info)
_ARGTYPES = {
    "dpotrf": (ctypes.c_char_p, _int, _array, _int, _int),
    "dpotrs": (ctypes.c_char_p, _int, _int, _array, _int, _array, _int, _int),
}


@functools.cache
def _routine(name: str):
    """numpy's OpenBLAS routine `name` as a plain C call, which releases the
    GIL (CFUNCTYPE, not PYFUNCTYPE).  Raises ImportError when that OpenBLAS
    lacks it; a failed lookup is not cached."""
    symbol = _SYMBOL.format(name)
    try:
        return ctypes.CFUNCTYPE(None, *_ARGTYPES[name])((symbol, _OPENBLAS))
    except AttributeError:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        raise ImportError(
            f"riskmono needs {symbol} from numpy's bundled OpenBLAS; this numpy links "
            f"LAPACK {lapack.get('name')} {lapack.get('version')}"
        ) from None


class NotPositiveDefinite(LinAlgError):
    """dpotrf stopped at a pivot that is not positive.  `leading` is the
    upper factor of the leading block before that pivot, which dpotrf had
    completed (0 x 0 when the first pivot failed)."""

    def __init__(self, pivot: int, leading: np.ndarray):
        super().__init__(f"{pivot}-th leading minor of the array is not positive definite")
        self.leading = leading


def _check(info: ctypes.c_int64, routine: str) -> None:
    if info.value < 0:
        raise LapackArgumentError(f"illegal value in argument {-info.value} of {routine}")


def cho_factor(A: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor U (U'U = A) of an SPD matrix, as
    `scipy.linalg.cho_factor(A)[0]`, bit for bit: the upper triangle of a
    Fortran-order copy of A is factored in place (only that triangle is
    read), and the strict lower triangle keeps A's entries.  Raises
    NotPositiveDefinite, a LinAlgError, when A is not positive definite."""
    U = np.array(A, dtype=np.float64, order="F")
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {U.shape}")
    n, info = U.shape[0], ctypes.c_int64()
    _routine("dpotrf")(b"U", ctypes.c_int64(n), U.ctypes.data, ctypes.c_int64(max(1, n)), info)
    _check(info, "dpotrf")
    if info.value > 0:
        m = info.value - 1
        raise NotPositiveDefinite(info.value, np.array(U[:m, :m], order="F"))
    return U


def cho_solve(U: np.ndarray, B: np.ndarray, k: int | None = None) -> np.ndarray:
    """Solution X of U'U X = B for the factor U from `cho_factor`, as
    `scipy.linalg.cho_solve((U, False), B)`, bit for bit; B is a vector or a
    matrix of right-hand sides and is not modified.  With k, the solve uses
    the leading k x k block of U in place (one dpotrs call with U's leading
    dimension), and B has k rows."""
    U = np.asfortranarray(U, dtype=np.float64)
    X = np.array(B, dtype=np.float64, order="F")
    n = U.shape[0]
    if U.ndim != 2 or U.shape[1] != n:
        raise ValueError(f"expected a square factor, got shape {U.shape}")
    if k is None:
        k = n
    elif not 0 <= k <= n:
        raise ValueError(f"k = {k} is outside 0..{n}")
    if X.ndim not in (1, 2) or X.shape[0] != k:
        raise ValueError(f"incompatible shapes {U.shape} (k = {k}) and {X.shape}")
    nrhs, info = 1 if X.ndim == 1 else X.shape[1], ctypes.c_int64()
    _routine("dpotrs")(b"U", ctypes.c_int64(k), ctypes.c_int64(nrhs), U.ctypes.data,
                       ctypes.c_int64(max(1, n)), X.ctypes.data, ctypes.c_int64(max(1, k)), info)
    _check(info, "dpotrs")
    return X


# None where numpy's OpenBLAS predates the symbol
_set_threads = getattr(_OPENBLAS, "openblas_set_num_threads_local", None)
if _set_threads is not None:
    _set_threads.argtypes, _set_threads.restype = [ctypes.c_int], ctypes.c_int


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: int | None = None


@contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS, which serves both numpy's
    products and the Cholesky routines above, on one thread, then restore
    the previous count.  That pthreads OpenBLAS keeps one thread count per
    process (`openblas_set_num_threads_local` sets it for all threads and
    returns the old value), so the pin is process-wide and
    reference-counted: overlapping blocks restore when the last exits."""
    global _pin_depth, _pin_saved
    with _pin_lock:
        if _pin_depth == 0 and _set_threads is not None:
            _pin_saved = _set_threads(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0 and _pin_saved is not None:
                _set_threads(_pin_saved)
                _pin_saved = None
