import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from riskmono import (
    BaseProcedure,
    DataModel,
    MonotonizeConfig,
    SweepConfig,
    run_sweep,
    sweep,
)
from riskmono.profiles import mn1ls_profile
from riskmono.sweep import CSV_COLUMNS, worker_count

from conftest import scan_monotonized_profile

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "RISKMONO_THREADS")
# a zero-step sweep at n = 400, where OpenBLAS threads its gram products and
# Cholesky factors, so a BLAS thread count could reach the output
BLAS_SIZED_CONFIG = "\n".join([
    "model = dense", "rho2 = 4", "proc = zero", "n = 400", "gammas = 0.5,2",
    "reps = 2", "block = 60", "n_te = 40", "seed = 3", "",
])
# prints the in-memory rows of that sweep, every float in hex
ROWS_SCRIPT = """
import sys
from riskmono.cli import _config_to_sweep, read_config
from riskmono.sweep import run_sweep
rows = run_sweep(_config_to_sweep(read_config(sys.argv[1]), {})).rows
print(repr([{k: v.hex() if isinstance(v, float) else v for k, v in r.items()} for r in rows]))
"""


def small_cfg(**kw):
    defaults = dict(
        n=60,
        gamma_grid=(0.25, 2.0),
        reps=4,
        model=DataModel.dense(1, 4.0, 1.0),
        procedure="base",
        base=BaseProcedure.mn2ls(),
        mono=MonotonizeConfig(block=8, n_te=12),
        master_seed=11,
    )
    defaults.update(kw)
    return SweepConfig(**defaults)


class TestRunSweep:
    def test_degenerate_grid_single_row(self):
        table = run_sweep(small_cfg(gamma_grid=(0.5,), reps=1))
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row["p"] == 30 and row["n_fail"] == 0
        assert math.isfinite(row["mean_risk"])

    def test_null_base_tracks_null_risk(self):
        cfg = small_cfg(
            n=100,
            base=BaseProcedure.null(),
            gamma_grid=(0.5, 2.0, 8.0),
            reps=30,
        )
        table = run_sweep(cfg)
        for row in table.rows:
            assert abs(row["mean_risk"] - 5.0) <= 4 * row["se_risk"] + 0.3

    def test_closed_form_and_mc_agree(self):
        cfg = small_cfg(reps=6, n_mc=4000)
        table = run_sweep(cfg)
        for row in table.rows:
            spread = math.hypot(row["se_risk"], row["se_risk_mc"])
            mc_se = row["mean_risk"] * math.sqrt(2.0 / 4000) / math.sqrt(6)
            tol = 4 * max(spread, mc_se)
            assert abs(row["mean_risk"] - row["mean_risk_mc"]) <= tol

    def test_analytic_columns_for_base_mn2ls(self):
        table = run_sweep(small_cfg(gamma_grid=(0.5, 4.0), reps=2))
        for row in table.rows:
            want = (
                1.0 / (1 - row["gamma"])
                if row["gamma"] < 1
                else 4 * (1 - 1 / row["gamma"]) + 1 / (row["gamma"] - 1) + 1
            )
            assert row["analytic"] == pytest.approx(want, rel=1e-9)
            assert row["monotonized_analytic"] <= row["analytic"] + 1e-9

    def test_zero_step_procedure_runs(self):
        cfg = small_cfg(procedure="zero", reps=2, gamma_grid=(1.5,))
        table = run_sweep(cfg)
        row = table.rows[0]
        assert row["proc"] == "zero" and math.isfinite(row["mean_risk"])
        # analytic column for zero-step is the monotonized base profile
        assert row["analytic"] == row["monotonized_analytic"]

    def test_one_step_procedure_runs(self):
        cfg = small_cfg(procedure="one", reps=2, gamma_grid=(1.5,))
        table = run_sweep(cfg)
        row = table.rows[0]
        assert row["proc"] == "one" and math.isfinite(row["mean_risk"])
        assert math.isfinite(row["analytic"])

    @pytest.mark.parametrize("procedure", ["zero", "one"])
    def test_bagged_runs_have_no_analytic_target(self, procedure):
        # bagging lowers the risk below the M = 1 profiles, and no M-aware
        # target exists: `analytic` is NaN, `monotonized_analytic` stays the
        # M = 1 monotonized base profile
        single, bagged = (
            run_sweep(small_cfg(procedure=procedure, reps=1, gamma_grid=(1.5,),
                                mono=MonotonizeConfig(M=M, block=8, n_te=12))).rows[0]
            for M in (1, 2)
        )
        assert bagged["M"] == 2 and math.isnan(bagged["analytic"])
        assert math.isfinite(single["analytic"])
        assert bagged["monotonized_analytic"] == single["monotonized_analytic"]
        assert math.isfinite(bagged["mean_risk"])

    def test_oracle_risk_bounds_selected_risk(self):
        for proc in ("zero", "one"):
            table = run_sweep(small_cfg(procedure=proc, reps=3))
            for row in table.rows:
                assert math.isfinite(row["mean_oracle_risk"])
                assert math.isfinite(row["se_oracle_risk"])
                assert row["mean_oracle_risk"] <= row["mean_risk"]
        for row in run_sweep(small_cfg(reps=3)).rows:
            assert row["mean_oracle_risk"] == row["mean_risk"]
            assert row["se_oracle_risk"] == row["se_risk"]

    def test_csv_header_is_csv_columns(self, tmp_path):
        path = tmp_path / "zero.csv"
        run_sweep(small_cfg(procedure="zero", reps=2)).to_csv(path)
        header, *lines = path.read_text().splitlines()
        assert header == ",".join(CSV_COLUMNS)
        assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines)

    def test_csv_bit_reproducible(self, tmp_path):
        cfg = small_cfg(reps=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(cfg).to_csv(a)
        run_sweep(cfg).to_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path, monkeypatch):
        cfg = small_cfg(reps=4)
        monkeypatch.setenv("RISKMONO_THREADS", "1")
        seq = run_sweep(cfg).rows
        monkeypatch.setenv("RISKMONO_THREADS", "4")
        par = run_sweep(cfg).rows
        assert seq == par

    def test_analytic_columns_run_while_the_pool_runs(self, monkeypatch):
        # each cell waits for the analytic columns to start; when they start
        # only after the pool, every wait times out
        started, waited = threading.Event(), []
        replication, columns = sweep._replication, sweep._analytic_columns

        def cell(*args):
            waited.append(started.wait(timeout=5))
            return replication(*args)

        def analytic(cfg):
            started.set()
            return columns(cfg)

        monkeypatch.setattr(sweep, "_replication", cell)
        monkeypatch.setattr(sweep, "_analytic_columns", analytic)
        monkeypatch.setenv("RISKMONO_THREADS", "2")
        rows = run_sweep(small_cfg(reps=2)).rows
        assert len(waited) == 4 and all(waited)
        assert [row["n_fail"] for row in rows] == [0, 0]

    @pytest.mark.parametrize("value,want", [("3", 3), (" 1 ", 1), ("", os.cpu_count() or 1)])
    def test_worker_count_reads_the_environment(self, monkeypatch, value, want):
        monkeypatch.setenv("RISKMONO_THREADS", value)
        assert worker_count() == want

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-3"])
    def test_bad_worker_count_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("RISKMONO_THREADS", value)
        with pytest.raises(ValueError, match="RISKMONO_THREADS must be an integer >= 1"):
            worker_count()

    def test_failures_counted_and_tolerated(self):
        # block too large for subsampled sizes at small n: every zero-step rep
        # raises ConfigError, so the grid point is marked invalid
        cfg = small_cfg(
            procedure="zero",
            reps=4,
            gamma_grid=(0.5,),
            mono=MonotonizeConfig(block=40, n_te=12),
        )
        table = run_sweep(cfg)
        row = table.rows[0]
        assert row["n_fail"] == 4
        assert math.isnan(row["mean_risk"])
        reasons = row["fail_reasons"]
        assert isinstance(reasons, tuple) and len(reasons) == 4
        assert all(r.startswith("ConfigError: ") and len(r) > 13 for r in reasons)

    def test_no_failures_no_reasons(self):
        for row in run_sweep(small_cfg(reps=2)).rows:
            assert row["n_fail"] == 0 and row["fail_reasons"] == ()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_programming_error_propagates(self, monkeypatch, threads):
        # a TypeError is a bug, not a failed replication
        def broken_fit(self, data):
            raise TypeError("broken fitter")

        monkeypatch.setenv("RISKMONO_THREADS", threads)
        monkeypatch.setattr(BaseProcedure, "fit", broken_fit)
        with pytest.raises(TypeError, match="broken fitter"):
            run_sweep(small_cfg(reps=2))

    def test_mn1ls_analytic_columns_match_per_gamma_values(self):
        # sparse model with the lassoless base: one monotonized curve for the
        # whole grid, gamma by gamma equal to the per-gamma scan
        model = DataModel.sparse(1, 0.01, 20.0, 1.0)
        cfg = small_cfg(
            n=100,
            gamma_grid=(2.0, 3.0),
            reps=1,
            model=model,
            procedure="zero",
            base=BaseProcedure.mn1ls(),
            mono=MonotonizeConfig(block=20, n_te=10),
        )
        prior = model.mn1ls_prior()
        profile = lambda z: mn1ls_profile(z, prior, 1.0)
        for row in run_sweep(cfg).rows:
            want = scan_monotonized_profile(row["gamma"], profile)
            assert row["monotonized_analytic"] == pytest.approx(want, rel=1e-12, abs=0.0)
            assert row["analytic"] == row["monotonized_analytic"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_cfg(reps=0)
        with pytest.raises(ValueError):
            small_cfg(gamma_grid=(2.0, 0.5))
        with pytest.raises(ValueError):
            small_cfg(procedure="mystery")

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_gamma_is_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            small_cfg(gamma_grid=(0.5, bad))
        with pytest.raises(ValueError, match="finite"):
            small_cfg(gamma_grid=(bad,))


class TestThreadEnvironments:
    """Each run is a fresh process with the thread counts set before numpy
    loads, as a user sets them."""

    @staticmethod
    def run(args, riskmono_threads, blas_threads):
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env.update(RISKMONO_THREADS=riskmono_threads, OPENBLAS_NUM_THREADS=blas_threads,
                   OMP_NUM_THREADS=blas_threads, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_csv_identical_across_worker_and_blas_threads(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(BLAS_SIZED_CONFIG)
        csvs = {}
        for workers in ("1", "2"):
            for blas in ("1", "2"):
                out = tmp_path / f"w{workers}-b{blas}.csv"
                self.run(["-m", "riskmono.cli", "simulate", "--config", str(config),
                          "--out", str(out)], workers, blas)
                csvs[workers, blas] = out.read_bytes()
        assert len(csvs[("1", "1")].splitlines()) == 3
        assert all(csv == csvs[("1", "1")] for csv in csvs.values())

    def test_rows_bit_identical_across_workers_with_blas_pinned(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(BLAS_SIZED_CONFIG)
        serial = self.run(["-c", ROWS_SCRIPT, str(config)], "1", "1")
        assert serial == self.run(["-c", ROWS_SCRIPT, str(config)], "2", "1")
