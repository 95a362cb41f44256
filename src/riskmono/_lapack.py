# ctypes access to the OpenBLAS copies that scipy and numpy load: the SPD
# Cholesky factor and solve, called without the GIL so that sweep workers
# overlap, and a pin of every OpenBLAS to one thread while a pool runs.
# scipy's LAPACK is bound at the first call that needs it, not at import, so
# `import riskmono` loads numpy only.

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager

import numpy as np
from numpy.linalg import LinAlgError  # the class scipy.linalg raises too


class LapackArgumentError(Exception):
    """LAPACK rejected an argument.  A programming error, so deliberately not
    a ValueError: cross-validation and the sweep must not count it as a
    failed candidate or cell."""


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


_int = ctypes.POINTER(ctypes.c_int)
_array = ctypes.c_void_p
# dpotrf(uplo, n, a, lda, info); dpotrs(uplo, n, nrhs, a, lda, b, ldb, info)
_PROTOTYPES = {
    "_potrf": ("dpotrf", ctypes.c_char_p, _int, _array, _int, _int),
    "_potrs": ("dpotrs", ctypes.c_char_p, _int, _int, _array, _int, _array, _int, _int),
}


_bound = False


def _bind() -> None:
    """Load scipy's LAPACK (and with it scipy's OpenBLAS) and bind `_potrf`
    and `_potrs` as module attributes, once: each is scipy's own routine as a
    plain C call, which releases the GIL (CFUNCTYPE, not PYFUNCTYPE)."""
    global _bound
    if _bound:
        return
    from scipy.linalg import cython_lapack

    for attr, (name, *argtypes) in _PROTOTYPES.items():
        capsule = cython_lapack.__pyx_capi__[name]
        address = _capsule_pointer(capsule, _capsule_name(capsule))
        # setdefault: a routine a test substituted before binding stays
        globals().setdefault(attr, ctypes.CFUNCTYPE(None, *argtypes)(address))
    _bound = True


def __getattr__(name: str):
    # `_potrf` and `_potrs` exist from the first call that needs LAPACK on
    if name in _PROTOTYPES:
        _bind()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class NotPositiveDefinite(LinAlgError):
    """dpotrf stopped at a pivot that is not positive.  `leading` is the
    upper factor of the leading block before that pivot, which dpotrf had
    completed (0 x 0 when the first pivot failed)."""

    def __init__(self, pivot: int, leading: np.ndarray):
        super().__init__(f"{pivot}-th leading minor of the array is not positive definite")
        self.leading = leading


def _check(info: ctypes.c_int, routine: str) -> None:
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
    n, info = U.shape[0], ctypes.c_int()
    _bind()
    _potrf(b"U", ctypes.c_int(n), U.ctypes.data, ctypes.c_int(max(1, n)), info)
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
    nrhs, info = 1 if X.ndim == 1 else X.shape[1], ctypes.c_int()
    _bind()
    _potrs(b"U", ctypes.c_int(k), ctypes.c_int(nrhs), U.ctypes.data, ctypes.c_int(max(1, n)),
           X.ctypes.data, ctypes.c_int(max(1, k)), info)
    _check(info, "dpotrs")
    return X


def _openblas_libraries() -> list:
    """Every OpenBLAS this process has mapped (numpy and scipy each bundle
    one), as a `ctypes.CDLL`; empty where /proc/self/maps is missing.  Binds
    LAPACK first, so that scipy's OpenBLAS is mapped even before the first
    fit."""
    _bind()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return [ctypes.CDLL(path) for path in sorted(p for p in paths if p.startswith("/") and ".so" in p)]


def _openblas_thread_setters() -> list:
    """`openblas_set_num_threads_local` of every mapped OpenBLAS; an OpenBLAS
    that predates the symbol has none."""
    setters = []
    for lib in _openblas_libraries():
        setter = getattr(lib, "openblas_set_num_threads_local", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
            setters.append(setter)
    return setters


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list = []


@contextmanager
def one_blas_thread():
    """Run the block with every OpenBLAS on one thread, then restore the
    previous counts.  The pthreads OpenBLAS that numpy and scipy ship keeps
    one thread count per process (`openblas_set_num_threads_local` sets it
    for all threads and returns the old value), so the pin is process-wide
    and reference-counted: overlapping blocks restore when the last exits."""
    global _pin_depth, _pin_saved
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = [(setter, setter(1)) for setter in _openblas_thread_setters()]
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for setter, previous in _pin_saved:
                    setter(previous)
                _pin_saved = []
