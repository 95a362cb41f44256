"""Bit-for-bit pins of the profile engine, the fits, the sweeps and the CLI.

`golden/profiles.json` pins the `PINNED` profile functions (float hex) and
three `riskmono profile` CSVs (SHA-256).  `golden/fits.json` pins each zero-
and one-step run of `BASES` on `datasets()` and each `run_sweep` case of
`SWEEPS` (SHA-256 of their float bits, plus 12-digit values: a run's
selected index and true risk, a sweep row's CSV fields and
`mean_oracle_risk`), and each CLI output of `cli_runs` (SHA-256).  In the
environment a file records, all must match bit for bit; elsewhere the values
must agree to 12 significant digits, and digests are not compared.

    PYTHONPATH=src python tests/test_golden.py write | dump OUT | diff A B

`write` rewrites both files (only for a change meant to move the numbers),
`dump` pickles the fit runs and sweeps, and `diff` compares two dumps.
"""

import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import math
import pickle
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from riskmono import (BaseProcedure, Dataset, DataModel, Mn1lsPrior, ModelEnergy, MonotonizeConfig,
                      SweepConfig, _lapack, cli, generate, mn1ls_profile, mn2ls_profile, one_step,
                      optimize_onestep_iso, run_sweep, sweep, zero_step)
from riskmono.profiles import SpectralInputs
from riskmono.sweep import CSV_COLUMNS, _fmt

GOLDEN = Path(__file__).resolve().parent / "golden" / "profiles.json"
FITS = GOLDEN.with_name("fits.json")
_x = float.fromhex

MN1LS_PRIORS = ((0.01, 20.0, 1.0), (0.1, 3.0, 1.0), (0.5, 1.0, 0.25))  # (epsilon, magnitude, sigma2)
SPECTRA = {  # (H, G)
    "isotropic": (SpectralInputs.point_mass(1.0), SpectralInputs.point_mass(1.0)),
    "two_atom": (SpectralInputs(((0.5, 0.5), (2.0, 0.5))), SpectralInputs(((0.5, 0.25), (2.0, 0.75)))),
}
CSV_KINDS = ("mn2ls", "onestep", "mn1ls")

N, RHO2, SIGMA2 = 60, 4.0, 1.0
BASES = {"mn2ls": BaseProcedure.mn2ls(), "ridge": BaseProcedure.ridge(0.3), "lasso": BaseProcedure.lasso(0.5),
         "null": BaseProcedure.null(), "mn1ls": BaseProcedure.mn1ls()}

# run_sweep cases: dense model at n = 60; "default_block" leaves block and nu
# to the library; "injected_failures" makes every cell whose data seed is 0
# mod 3 raise, so some grid points keep valid means next to failed cells and
# others get NaN; "config_error" fails every cell (block too large for n)
_SWEEP = dict(n=60, gamma_grid=(0.25, 0.8, 2.0), reps=5, model=DataModel.dense(1, RHO2, SIGMA2),
              master_seed=11)
_MONO = MonotonizeConfig(block=8, n_te=12)
SWEEPS = {
    "base": dict(procedure="base", n_mc=40),
    "zero": dict(procedure="zero", mono=_MONO, n_mc=40),
    "zero_M3": dict(procedure="zero", mono=MonotonizeConfig(M=3, block=8, n_te=12)),
    "one": dict(procedure="one", mono=_MONO, n_mc=40),
    "one_M3": dict(procedure="one", mono=MonotonizeConfig(M=3, block=8, n_te=12)),
    "default_block": dict(procedure="zero"),
    "injected_failures": dict(procedure="zero", mono=_MONO, reps=8),
    "config_error": dict(procedure="zero", mono=MonotonizeConfig(block=40, n_te=12)),
}

SIMULATE = {  # `riskmono simulate` configs, each after the lines `cli_runs` writes first
    "base": "rho2 = 4\nn_mc = 40",
    "zero": "rho2 = 4\nproc = zero\nm = 2\nblock = 8\nn_te = 12\nn_mc = 40",
    "one": "rho2 = 4\nproc = one\nblock = 8\nn_te = 12\nn_mc = 40",
    "zero_default_block": "rho2 = 4\nproc = zero",
    "sparse_mn1_zero": "model = sparse\nepsilon = 0.05\nmagnitude = 3\nbase = mn1\nproc = zero\n"
                       "block = 8\nn_te = 10",
}


def log_grid(lo, hi, count):
    return np.exp(np.linspace(math.log(lo), math.log(hi), count)).tolist()


def environment(blas: bool = False) -> dict:
    """What can move a profile's last bit; with `blas`, a fit's too: the kernel
    set numpy's OpenBLAS, the one every fit uses, picked at run time."""
    try:
        from numpy.lib.introspect import opt_func_info
        exp = opt_func_info(func_name="^exp$", signature="float64")["exp"]["dd"]["current"]
    except (ImportError, KeyError):
        exp = "unknown"
    env = {"python": platform.python_version(),
           "platform": "-".join((platform.system(), platform.machine(), *platform.libc_ver())),
           "numpy": np.__version__, "numpy_exp_float64": exp}
    if blas:
        corename = ctypes.CFUNCTYPE(ctypes.c_char_p)(("scipy_openblas_get_corename64_", _lapack._OPENBLAS))
        env["numpy_openblas_core"] = corename().decode()
    return env


def _onestep(gamma, snr):
    opt = optimize_onestep_iso(_x(gamma), _x(snr))
    return [opt.risk.hex(), opt.zeta1.hex(), opt.zeta2.hex(), opt.branch]


PINNED = {  # function name -> its pinned outputs (float hex, or a branch name) at stored inputs
    "mn1ls_profile": lambda eps, mag, sigma2, phi: [
        mn1ls_profile(_x(phi), Mn1lsPrior(_x(eps), _x(mag)), _x(sigma2)).hex()],
    "mn2ls_profile": lambda spectra, phi: [
        mn2ls_profile(_x(phi), ModelEnergy(4.0, 1.0), *SPECTRA[spectra]).hex()],
    "optimize_onestep_iso": _onestep,
}


def cli_digest(argv: list) -> str:
    """SHA-256 of what `riskmono argv` writes: the file after --out, else stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert cli.main(argv) == 0
    out = Path(argv[argv.index("--out") + 1]).read_bytes() if "--out" in argv else stdout.getvalue().encode()
    return hashlib.sha256(out).hexdigest()


def profile_argv(kind: str, tmp: Path) -> list:
    return ["profile", "--kind", kind, "--gamma", "0.1:10:20log", "--out", str(tmp / f"{kind}.csv")]


def cli_runs(tmp: Path) -> dict:
    """Case name -> `riskmono` argv of each pinned CLI output; writes their inputs to tmp."""
    runs = {}
    for name, config in SIMULATE.items():
        (tmp / f"{name}.cfg").write_text(f"n = 60\ngammas = 0.25:2:3log\nreps = 2\nseed = 5\n{config}\n")
        runs[f"simulate_{name}"] = ["simulate", "--config", str(tmp / f"{name}.cfg"),
                                    "--out", str(tmp / f"{name}.csv")]
    generate(DataModel.dense(80, RHO2, SIGMA2), N, 21)[0].to_csv(tmp / "data.csv")
    for proc, base in itertools.product(("zero", "one"), (["mn2"], ["lasso", "--lam", "0.5"])):
        runs[f"monotonize_{proc}_{base[0]}"] = ["monotonize", "--data", str(tmp / "data.csv"),
                                                "--proc", proc, "--base", *base]
    return {**runs, "selftest": ["selftest"]}


def _failing_generate(model, n, seed, generate=sweep.generate):
    if seed % 3 == 0:
        raise ArithmeticError(f"injected failure at seed {seed}")
    return generate(model, n, seed)


def datasets():
    out = {f"p{p}": generate(DataModel.dense(p, RHO2, SIGMA2), N, 100 + p) for p in (20, 48, 150)}
    data, beta0 = generate(DataModel.dense(150, RHO2, SIGMA2), N, 7)
    X, y = data.features.copy(), data.response.copy()
    X[30:], y[30:] = X[:30], y[:30]
    out["p150_repeated_rows"] = (Dataset(X, y), beta0)
    return out


def fits() -> dict:
    """What `dump` pickles: each run's candidates, selection and coefficients, each sweep's rows."""
    runs = {}
    data_sets = datasets()
    for (dname, (data, _)), (kind, base), M, (pname, proc) in itertools.product(
            data_sets.items(), BASES.items(), (1, 3), (("zero_step", zero_step), ("one_step", one_step))):
        table, pred = proc(data, base, MonotonizeConfig(M=M, n_te=10, block=8, seed=11))
        rows = [(row.index, None if row.estimate is None else row.estimate.value,
                 None if row.predictor is None else row.predictor.coefficients.copy(), row.error)
                for row in table.rows]
        runs[(kind, pname, M, dname)] = (rows, table.selected, pred.coefficients.copy())
    sweeps = {}
    for name, knobs in SWEEPS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("RISKMONO_THREADS", "2")
            if name == "injected_failures":
                mp.setattr(sweep, "generate", _failing_generate)
            sweeps[name] = run_sweep(SweepConfig(**{**_SWEEP, **knobs})).rows
    return {"runs": runs, "signals": {k: beta0 for k, (_, beta0) in data_sets.items()}, "sweeps": sweeps}


def _bits(obj):
    # floats by their hex form, so NaN equals NaN and -0.0 differs from 0.0
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, np.ndarray):
        return [obj.dtype.str, obj.shape, obj.tobytes().hex()]
    if isinstance(obj, dict):
        return [[k, _bits(v)] for k, v in sorted(obj.items())]
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    return int(obj) if isinstance(obj, np.integer) else obj


def _risk(beta, beta0):
    return float((beta - beta0) @ (beta - beta0) + SIGMA2)


def pins(out: dict, tmp: Path) -> dict:
    """Section -> [case, SHA-256 of its bits, its readable 12-digit values] per case."""
    def sha(obj):
        return hashlib.sha256(repr(_bits(obj)).encode()).hexdigest()
    return {
        "runs": [[",".join(map(str, key)), sha(run), str(run[1]), _fmt(_risk(run[2], out["signals"][key[3]]))]
                 for key, run in out["runs"].items()],
        "sweeps": [[name, sha(rows), *(",".join(_fmt(row[c]) for c in (*CSV_COLUMNS, "mean_oracle_risk"))
                                       for row in rows)] for name, rows in out["sweeps"].items()],
        "cli": [[name, cli_digest(argv)] for name, argv in cli_runs(tmp).items()],
    }


def _close(a: str, b: str) -> bool:
    """Equal fields, or numbers within 1e-11 relative: 12 printed digits."""
    with contextlib.suppress(ValueError):
        return a == b or math.isclose(float(a), float(b), rel_tol=1e-11)
    return False


@pytest.fixture(scope="module")
def golden():
    return {path.stem: json.loads(path.read_text(encoding="utf-8")) for path in (GOLDEN, FITS)}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = fits()
    return out, pins(out, tmp_path_factory.mktemp("cli"))


@pytest.mark.parametrize("function", PINNED)
def test_profile_values(golden, function):
    rows = golden["profiles"][function]
    got = [v for args, _ in rows for v in PINNED[function](*args)]
    want = [v for _, values in rows for v in values]
    assert len(got) == len(want) > 0
    if golden["profiles"]["environment"] == environment():
        assert got == want
    else:  # floats to 12 significant digits, branch names exactly
        for a, b in zip(got, want):
            is_float = b.lstrip("-").startswith(("0x", "inf", "nan"))
            assert math.isclose(_x(a), _x(b), rel_tol=1e-12) if is_float else a == b


@pytest.mark.parametrize("kind", CSV_KINDS)
def test_profile_csv(golden, kind, tmp_path):
    if golden["profiles"]["environment"] != environment():
        pytest.skip(f"pinned in {golden['profiles']['environment']}, running in {environment()}")
    assert cli_digest(profile_argv(kind, tmp_path)) == golden["profiles"]["profile_csv_sha256"][kind]


@pytest.mark.parametrize("section", ["runs", "sweeps", "cli"])
def test_fits(golden, outputs, section):
    got = {case: values for case, *values in outputs[1][section]}
    want = {case: values for case, *values in golden["fits"][section]}
    assert got.keys() == want.keys()
    if golden["fits"]["environment"] == environment(blas=True):
        moved = [case for case in want if got[case] != want[case]]
    elif section == "cli":
        pytest.skip(f"pinned in {golden['fits']['environment']}, running in {environment(blas=True)}")
    else:  # the readable values to 12 digits, a selected index exactly
        fields = {case: [",".join(pin[case][1:]).split(",") for pin in (got, want)] for case in want}
        moved = [case for case, (a, b) in fields.items() if len(a) != len(b) or not all(map(_close, a, b))]
    assert not moved, f"{section} that moved: {moved}"


def test_diff_names_a_flipped_bit(outputs, tmp_path, capsys):
    a, b = tmp_path / "a.pkl", tmp_path / "b.pkl"
    a.write_bytes(pickle.dumps(outputs[0]))
    flipped = pickle.loads(a.read_bytes())
    flipped["runs"][("ridge", "one_step", 3, "p48")][0][0][2].view(np.uint64)[0] ^= 1
    b.write_bytes(pickle.dumps(flipped))
    main(["diff", str(a), str(a)])
    with pytest.raises(SystemExit, match="^1$"):
        main(["diff", str(a), str(b)])
    same, flip = (out.splitlines() for out in capsys.readouterr().out.split("base,runs,")[1:])
    assert [line for line in flip if line not in same] == [flip[2]] and flip[2].startswith("ridge,16,15,")


def diff(path_a, path_b) -> bool:
    """Print, per base kind and per sweep case, how many runs or rows are
    bit-identical and, for the runs, what moved most.  True when all are."""
    a, b = (pickle.loads(Path(path).read_bytes()) for path in (path_a, path_b))
    if a["runs"].keys() != b["runs"].keys() or a["sweeps"].keys() != b["sweeps"].keys():
        raise SystemExit("the dumps hold different cases")
    print("base,runs,identical,max_coef_change,max_candidate_risk_change,"
          "max_selected_risk_change,selections_changed")
    identical = True
    for kind in BASES:
        runs = [(a["runs"][k], b["runs"][k], a["signals"][k[3]]) for k in a["runs"] if k[0] == kind]
        same = sum(_bits(ra) == _bits(rb) for ra, rb, _ in runs)
        pairs = [(ca, cb, beta0) for ra, rb, beta0 in runs
                 for (_, _, ca, _), (_, _, cb, _) in zip(ra[0], rb[0]) if ca is not None and cb is not None]
        coef = max([float(np.max(np.abs(ca - cb))) for ca, cb, _ in pairs], default=0.0)
        risk = max([abs(_risk(ca, beta0) - _risk(cb, beta0)) for ca, cb, beta0 in pairs], default=0.0)
        sel_risk = max(abs(_risk(ra[2], beta0) - _risk(rb[2], beta0)) for ra, rb, beta0 in runs)
        changed = sum(ra[1] != rb[1] for ra, rb, _ in runs)
        print(f"{kind},{len(runs)},{same},{coef:.3e},{risk:.3e},{sel_risk:.3e},{changed}")
        identical &= same == len(runs)
    print("sweep,rows,identical")
    for name, rows_a in a["sweeps"].items():
        rows_b = b["sweeps"][name]
        same = sum(_bits(ra) == _bits(rb) for ra, rb in zip(rows_a, rows_b))
        print(f"{name},{max(len(rows_a), len(rows_b))},{same}")
        identical &= same == len(rows_a) == len(rows_b)
    return identical


def write():
    with tempfile.TemporaryDirectory() as tmp:
        digests = {kind: cli_digest(profile_argv(kind, Path(tmp))) for kind in CSV_KINDS}
        sections = pins(fits(), Path(tmp))
    phis = [0.5, 1.0, math.inf, *log_grid(1.01, 1e4, 57)]
    inputs = {
        "mn1ls_profile": [[*(v.hex() for v in prior), phi.hex()] for prior in MN1LS_PRIORS for phi in phis],
        "mn2ls_profile": [[name, phi.hex()] for name in SPECTRA
                          for phi in [0.5, 1.0, math.inf, *log_grid(1.001, 1e5, 17)]],
        "optimize_onestep_iso": [[g.hex(), snr.hex()] for g in log_grid(0.1, 20.0, 8)
                                 for snr in (0.5, 1.5, 4.0, 11.0, 50.0)],
    }
    rows = {name: [[args, PINNED[name](*args)] for args in cases] for name, cases in inputs.items()}
    for path, parts in ((GOLDEN, {"environment": environment(), **rows, "profile_csv_sha256": digests}),
                        (FITS, {"environment": environment(blas=True), **sections})):
        # a list gets one line per element, so a diff of the file names the case
        lines = [f' "{name}": ' + ("[\n" + ",\n".join(f"  {json.dumps(row)}" for row in value) + "\n ]"
                                   if isinstance(value, list) else json.dumps(value))
                 for name, value in parts.items()]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"wrote {path} with riskmono from {Path(cli.__file__).parent}")


def main(argv):
    command, *paths = argv or [""]
    if (command, len(paths)) == ("write", 0):
        write()
    elif (command, len(paths)) == ("dump", 1):
        Path(paths[0]).write_bytes(pickle.dumps(fits()))
    elif (command, len(paths)) != ("diff", 2):
        raise SystemExit(f"usage: {sys.argv[0]} write | dump OUT | diff A B\n\n{__doc__}")
    elif not diff(*paths):
        raise SystemExit(1)


if __name__ == "__main__":
    main(sys.argv[1:])
