"""What a fresh process loads: numpy at `import riskmono`, scipy's LAPACK at
the first fit (or the first BLAS pin), and scipy.optimize never."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "RISKMONO_THREADS")

PRELUDE = """\
import ctypes, json, sys
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def blas_threads():
    # the thread count of every mapped OpenBLAS that can report it
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    counts = {}
    for path in paths:
        setter = getattr(ctypes.CDLL(path), "openblas_set_num_threads_local", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
            counts[path] = setter(1)
            setter(counts[path])
    return counts
"""


def fresh(script: str, tmp_path: Path):
    """Run PRELUDE + script in a new interpreter with OpenBLAS on 2 threads;
    returns the JSON it prints last."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(OPENBLAS_NUM_THREADS="2", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PRELUDE + script], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy(tmp_path):
    assert fresh("import riskmono\nprint(json.dumps(scipy_modules()))", tmp_path) == []


@pytest.mark.parametrize("kind", ["mn2ls", "onestep", "mn1ls"])
def test_profile_command_loads_no_scipy(tmp_path, kind):
    script = (
        "from riskmono import cli\n"
        f"code = cli.main(['profile', '--kind', '{kind}', '--gamma', '0.1:10:6log', '--out', 'p.csv'])\n"
        "print(json.dumps([code, scipy_modules()]))"
    )
    assert fresh(script, tmp_path) == [0, []]
    assert len((tmp_path / "p.csv").read_text().splitlines()) == 7


def test_first_fit_loads_scipy_lapack_but_not_optimize(tmp_path):
    script = (
        "from riskmono import Dataset, fit_mn2ls\n"
        "rng = np.random.default_rng(0)\n"
        "fit_mn2ls(Dataset(rng.standard_normal((20, 30)), rng.standard_normal(20)))\n"
        "print(json.dumps(scipy_modules()))"
    )
    loaded = fresh(script, tmp_path)
    assert "scipy.linalg" in loaded
    assert not any(m.startswith("scipy.optimize") for m in loaded)


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_pin_before_any_fit_reaches_scipy_openblas(tmp_path):
    # a pin entered before LAPACK is bound must still cover the OpenBLAS that
    # the first Cholesky inside it loads
    script = (
        "from riskmono import Dataset, _lapack, fit_mn2ls\n"
        "rng = np.random.default_rng(0)\n"
        "with _lapack.one_blas_thread():\n"
        "    at_entry = blas_threads()\n"
        "    fit_mn2ls(Dataset(rng.standard_normal((20, 30)), rng.standard_normal(20)))\n"
        "    after_fit = blas_threads()\n"
        "print(json.dumps([at_entry, after_fit, 'scipy.linalg' in sys.modules]))"
    )
    at_entry, after_fit, lapack_loaded = fresh(script, tmp_path)
    if not at_entry:
        pytest.skip("no OpenBLAS with openblas_set_num_threads_local is mapped")
    assert lapack_loaded
    assert after_fit == at_entry
    assert set(at_entry.values()) == {1}
