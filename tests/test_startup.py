"""What a fresh process loads: numpy at `import riskmono`, and no scipy module
at any point, since the Cholesky routines come from numpy's own OpenBLAS."""

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


def test_first_fit_and_sweep_load_no_scipy(tmp_path):
    script = (
        "import os\nfrom riskmono import Dataset, DataModel, SweepConfig, run_sweep\n"
        "from riskmono.predictors import fit_mn2ls\n"
        "rng = np.random.default_rng(0)\n"
        "fit_mn2ls(Dataset(rng.standard_normal((20, 30)), rng.standard_normal(20)))\n"
        "after_fit = scipy_modules()\n"
        "os.environ['RISKMONO_THREADS'] = '2'\n"
        "rows = run_sweep(SweepConfig(40, (0.5, 2.0), 2, DataModel.dense(1, 4.0, 1.0), 'zero')).rows\n"
        "print(json.dumps([after_fit, scipy_modules(), sum(r['n_fail'] for r in rows)]))"
    )
    assert fresh(script, tmp_path) == [[], [], 0]


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "sim.cfg", "--out", "sim.csv"],
    ["monotonize", "--data", "data.csv", "--proc", "one", "--base", "mn2"],
    ["selftest"],
], ids=lambda argv: argv[0])
def test_fitting_commands_load_no_scipy(tmp_path, argv):
    (tmp_path / "sim.cfg").write_text("n = 40\ngammas = 0.5,2\nreps = 2\nproc = zero\nblock = 4\nn_te = 8\n")
    script = (
        "import contextlib, io\nfrom riskmono import DataModel, cli, generate\n"
        "generate(DataModel.dense(60, 4.0, 1.0), 40, 1)[0].to_csv('data.csv')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(json.dumps([code, scipy_modules()]))"
    )
    assert fresh(script, tmp_path) == [0, []]


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_pin_covers_numpy_openblas(tmp_path):
    # numpy's OpenBLAS is the only one mapped, before and after the first
    # Cholesky, and the pin holds it at one thread until the block exits
    script = (
        "from riskmono import Dataset, _lapack\nfrom riskmono.predictors import fit_mn2ls\n"
        "rng = np.random.default_rng(0)\n"
        "with _lapack.one_blas_thread():\n"
        "    at_entry = blas_threads()\n"
        "    fit_mn2ls(Dataset(rng.standard_normal((20, 30)), rng.standard_normal(20)))\n"
        "    after_fit = blas_threads()\n"
        "print(json.dumps([at_entry, after_fit, blas_threads()]))"
    )
    at_entry, after_fit, after_exit = fresh(script, tmp_path)
    if not at_entry:
        pytest.skip("no OpenBLAS with openblas_set_num_threads_local is mapped")
    assert len(at_entry) == 1
    assert after_fit == at_entry
    assert set(at_entry.values()) == {1}
    assert after_exit.keys() == at_entry.keys() and set(after_exit.values()) == {2}
