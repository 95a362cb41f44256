import csv

import numpy as np
import pytest

from riskmono import Dataset, monotonize
from riskmono.cli import main, parse_centering, parse_gamma_grid, read_config
from riskmono.monotonize import ConfigError
from riskmono.risk_estimation import AVG, Mom


class TestGridParsing:
    def test_log_grid_includes_endpoints(self):
        grid = parse_gamma_grid("0.1:10:20log")
        assert len(grid) == 20
        assert grid[0] == pytest.approx(0.1) and grid[-1] == pytest.approx(10.0)
        ratios = np.diff(np.log(grid))
        assert np.allclose(ratios, ratios[0])

    def test_linear_grid(self):
        grid = parse_gamma_grid("1:3:5lin")
        assert np.allclose(grid, [1, 1.5, 2, 2.5, 3])

    def test_comma_list(self):
        assert parse_gamma_grid("2.0,0.5,1.0") == (0.5, 1.0, 2.0)

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError):
            parse_gamma_grid("0:1:5log")

    def test_centering(self):
        assert parse_centering("avg") == AVG
        assert parse_centering("mom:0.1") == Mom(0.1)
        with pytest.raises(ConfigError):
            parse_centering("median")


class TestProfileCommand:
    def test_row_count(self, capsys):
        rc = main(
            ["profile", "--kind", "mn2ls", "--rho2", "4", "--sigma2", "1",
             "--gamma", "0.1:10:20log"]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "gamma,analytic,monotonized"
        assert len(out) == 21

    def test_onestep_kind(self, capsys):
        rc = main(["profile", "--kind", "onestep", "--rho2", "4", "--gamma", "1.2,2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        risks = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(1.0 < r < 4.0 for r in risks)

    @pytest.mark.parametrize(
        "gamma, message",
        [("2,inf", "finite"), ("0.5,nan", "finite"), ("1:inf:3log", "finite"),
         ("1:2", "'1:2' needs three fields")],
    )
    def test_bad_grid_is_an_error(self, capsys, gamma, message):
        assert main(["profile", "--kind", "mn2ls", "--gamma", gamma]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("kind", ["mn2ls", "onestep", "mn1ls"])
    def test_zero_noise_is_an_error(self, capsys, kind):
        assert main(["profile", "--kind", kind, "--sigma2", "0", "--gamma", "1,2"]) == 1
        assert "noise energy must be > 0" in capsys.readouterr().err


class TestSimulateCommand:
    CONFIG = """
# tiny smoke sweep
n = 40
gammas = 0.5,1.6
reps = 2
model = dense
rho2 = 4        # signal energy
sigma2 = 1
proc = zero
base = mn2
m = 1
n_te = 8
block = 6
seed = 3
"""

    def test_deterministic_output(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(self.CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header.startswith("gamma,p,proc,M,mean_risk")

    def test_missing_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = 40\n")
        assert main(["simulate", "--config", str(cfg), "--out", "x.csv"]) == 1

    def test_neither_block_nor_nu_uses_default_nu(self, tmp_path):
        # proc = base needs no block; zero-step falls back to nu = 0.5
        for proc in ("base", "zero"):
            cfg = tmp_path / f"{proc}.cfg"
            cfg.write_text(f"n = 40\ngammas = 0.5,2\nreps = 2\nproc = {proc}\n")
            out = tmp_path / f"{proc}.csv"
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            assert len(out.read_text().splitlines()) == 3

    def test_both_block_and_nu_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "both.cfg"
        cfg.write_text("n = 40\ngammas = 0.5\nreps = 1\nblock = 6\nnu = 0.5\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert "exactly one of block or nu" in capsys.readouterr().err

    def test_unused_keys_are_config_error(self, tmp_path, capsys):
        # misspelt block and rho2 must not fall back to their defaults
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("n = 60\ngammas = 0.5\nreps = 1\nproc = zero\nblok = 8\nrho = 9\n")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "blok" in err and "rho" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "base, lam, message",
        [("mn2", "lambda = 0.5\n", "takes no penalty"), ("lasso", "", "needs a positive penalty")],
    )
    def test_penalty_must_match_base(self, tmp_path, capsys, base, lam, message):
        cfg = tmp_path / "pen.cfg"
        cfg.write_text(f"n = 40\ngammas = 0.5,2\nreps = 2\nbase = {base}\n{lam}")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("proc", "two"), ("base", "foo")])
    def test_unknown_name_is_an_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "name.cfg"
        cfg.write_text(f"n = 40\ngammas = 0.5,2\nreps = 1\n{key} = {value}\n")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(value) in err
        assert not out.exists()

    @pytest.mark.parametrize("gammas", ["0.5,inf", "0.5,nan"])
    def test_non_finite_gamma_is_an_error(self, tmp_path, capsys, gammas):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(f"n = 40\ngammas = {gammas}\nreps = 1\n")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert not out.exists()

    def test_config_reader(self, tmp_path):
        cfg = tmp_path / "kv.cfg"
        cfg.write_text("a = 1\n# comment line\nb = two words  # trailing\n")
        assert read_config(cfg) == {"a": "1", "b": "two words"}


class TestMonotonizeCommand:
    def test_prints_table_and_selection(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 5))
        beta = np.array([1.0, -1.0, 0.5, 0.0, 2.0])
        data = Dataset(X, X @ beta + 0.1 * rng.standard_normal(60))
        path = tmp_path / "d.csv"
        data.to_csv(path)
        rc = main(
            ["monotonize", "--data", str(path), "--proc", "zero", "--base", "mn2",
             "--M", "2", "--nte", "12", "--block", "8", "--seed", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("selected") >= 2  # one marked row + summary line
        assert "# coefficients:" in out

    def test_without_block_uses_default_nu(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((60, 5))
        path = tmp_path / "d.csv"
        Dataset(X, X @ np.ones(5) + rng.standard_normal(60)).to_csv(path)
        rc = main(["monotonize", "--data", str(path), "--proc", "zero", "--base", "mn2"])
        assert rc == 0
        assert "# selected index:" in capsys.readouterr().out

    def test_one_step_table_is_csv(self, tmp_path, capsys, monkeypatch):
        # one-step indices are pairs, and failure reasons can hold commas:
        # every table row must still parse as the header's three fields
        rng = np.random.default_rng(2)
        path = tmp_path / "d.csv"
        Dataset(rng.standard_normal((60, 80)), rng.standard_normal(60)).to_csv(path)
        onestep = monotonize._onestep

        def failing(base, train, idx1, idx2, n1, n2):
            if n2 == 8:
                raise ValueError("rows 1, 2 repeat")
            return onestep(base, train, idx1, idx2, n1, n2)

        monkeypatch.setattr(monotonize, "_onestep", failing)
        rc = main(["monotonize", "--data", str(path), "--proc", "one", "--base", "mn2",
                   "--nte", "10", "--block", "8", "--seed", "3"])
        assert rc == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
        rows = list(csv.reader(lines))
        assert rows[0] == ["index", "estimated_risk", "status"]
        assert all(len(row) == 3 for row in rows)
        by_index = {row[0]: row for row in rows[1:]}
        assert by_index["2:0"][2] in ("", "selected") and float(by_index["2:0"][1]) > 0
        assert by_index["2:1"] == ["2:1", "", "failed: ValueError: rows 1, 2 repeat"]
        assert sum(row[2] == "selected" for row in rows) == 1

    def test_missing_data_file(self, capsys):
        rc = main(
            ["monotonize", "--data", "/nonexistent.csv", "--proc", "zero",
             "--base", "mn2"]
        )
        assert rc == 1


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["profile", "--bogus"]) == 1

    def test_unknown_command(self):
        assert main(["transmogrify"]) == 1

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
