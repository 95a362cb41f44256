"""Bit-for-bit pins of the analytic profile engine.

`golden/profiles.json` holds the float hex of `mn1ls_profile`,
`mn2ls_profile` and `optimize_onestep_iso` on fixed inputs, the SHA-256 of
three `riskmono profile` CSVs, and the environment that made them.  In that
environment every value must match bit for bit and every CSV byte for byte.
Elsewhere (another Python, platform, numpy, or numpy exp kernel, all of which
can move the last bit) the values must agree to 12 significant digits, and
the CSV digests are not compared.

Regenerate, only for a change that is meant to move the numbers, with the
source tree to pin on the path:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from riskmono import Mn1lsPrior, ModelEnergy, cli, mn1ls_profile, mn2ls_profile, optimize_onestep_iso
from riskmono.profiles import SpectralInputs

GOLDEN = Path(__file__).resolve().parent / "golden" / "profiles.json"

MN1LS_PRIORS = ((0.01, 20.0, 1.0), (0.1, 3.0, 1.0), (0.5, 1.0, 0.25))  # (epsilon, magnitude, sigma2)
SPECTRA = {  # (H, G)
    "isotropic": (SpectralInputs.point_mass(1.0), SpectralInputs.point_mass(1.0)),
    "two_atom": (SpectralInputs(((0.5, 0.5), (2.0, 0.5))), SpectralInputs(((0.5, 0.25), (2.0, 0.75)))),
}
CSV_KINDS = ("mn2ls", "onestep", "mn1ls")
CSV_GRID = "0.1:10:20log"


def log_grid(lo, hi, count):
    return np.exp(np.linspace(math.log(lo), math.log(hi), count)).tolist()


def environment() -> dict:
    try:
        from numpy.lib.introspect import opt_func_info
        exp = opt_func_info(func_name="^exp$", signature="float64")["exp"]["dd"]["current"]
    except (ImportError, KeyError):
        exp = "unknown"
    return {"python": platform.python_version(),
            "platform": "-".join((platform.system(), platform.machine(), *platform.libc_ver())),
            "numpy": np.__version__, "numpy_exp_float64": exp}


def csv_digest(kind: str, tmp: Path) -> str:
    out = tmp / f"{kind}.csv"
    assert cli.main(["profile", "--kind", kind, "--gamma", CSV_GRID, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _x(h: str) -> float:
    return float.fromhex(h)


def _is_float(s: str) -> bool:
    return s.lstrip("-").startswith(("0x", "inf", "nan"))


def _mn1ls(eps, mag, sigma2, phi):
    return [mn1ls_profile(_x(phi), Mn1lsPrior(_x(eps), _x(mag)), _x(sigma2)).hex()]


def _mn2ls(spectra, phi):
    return [mn2ls_profile(_x(phi), ModelEnergy(4.0, 1.0), *SPECTRA[spectra]).hex()]


def _onestep(gamma, snr):
    opt = optimize_onestep_iso(_x(gamma), _x(snr))
    return [opt.risk.hex(), opt.zeta1.hex(), opt.zeta2.hex(), opt.branch]


# function name -> its pinned outputs (float hex, or a branch name) at stored inputs
PINNED = {"mn1ls_profile": _mn1ls, "mn2ls_profile": _mn2ls, "optimize_onestep_iso": _onestep}


def default_inputs() -> dict:
    phis = [0.5, 1.0, math.inf, *log_grid(1.01, 1e4, 57)]
    return {
        "mn1ls_profile": [[*(v.hex() for v in prior), phi.hex()]
                          for prior in MN1LS_PRIORS for phi in phis],
        "mn2ls_profile": [[name, phi.hex()] for name in SPECTRA
                          for phi in [0.5, 1.0, math.inf, *log_grid(1.001, 1e5, 17)]],
        "optimize_onestep_iso": [[g.hex(), snr.hex()] for g in log_grid(0.1, 20.0, 8)
                                 for snr in (0.5, 1.5, 4.0, 11.0, 50.0)],
    }


def same_environment(golden) -> bool:
    return golden["environment"] == environment()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("function", PINNED)
def test_profile_values(golden, function):
    rows = golden[function]
    got = [v for args, _ in rows for v in PINNED[function](*args)]
    want = [v for _, values in rows for v in values]
    assert len(got) == len(want) > 0
    if same_environment(golden):
        assert got == want
    else:  # floats to 12 significant digits, branch names exactly
        for a, b in zip(got, want):
            assert math.isclose(_x(a), _x(b), rel_tol=1e-12) if _is_float(b) else a == b


@pytest.mark.parametrize("kind", CSV_KINDS)
def test_profile_csv(golden, kind, tmp_path):
    if not same_environment(golden):
        pytest.skip(f"pinned in {golden['environment']}, running in {environment()}")
    assert csv_digest(kind, tmp_path) == golden["profile_csv_sha256"][kind]


def write():
    with tempfile.TemporaryDirectory() as tmp:
        digests = {kind: csv_digest(kind, Path(tmp)) for kind in CSV_KINDS}
    rows = {name: [[args, PINNED[name](*args)] for args in inputs]
            for name, inputs in default_inputs().items()}
    parts = [f' "environment": {json.dumps(environment())}',
             *(f' "{name}": [\n' + ",\n".join(f"  {json.dumps(row)}" for row in rows[name]) + "\n ]"
               for name in rows),
             f' "profile_csv_sha256": {json.dumps(digests)}']
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN} with riskmono from {Path(cli.__file__).parent}")


if __name__ == "__main__":
    sys.exit(write())
