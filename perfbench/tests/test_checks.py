"""Each benchmark check passes on the program's output and fails on a
deliberately wrong one.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import riskmono  # noqa: E402
from riskmono import (  # noqa: E402
    Mn1lsPrior,
    ModelEnergy,
    mn1ls_profile,
    mn2ls_profile,
    monotonize_profile,
    optimize_onestep_iso,
)

import checks  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402

RHO2, SIGMA2 = 4.0, 1.0
ENERGY = ModelEnergy(RHO2, SIGMA2)


def mono(g):
    return monotonize_profile(g, lambda z: mn2ls_profile(z, ENERGY))


# -- closed forms the checks rely on -----------------------------------------


@pytest.mark.parametrize("zeta", [0.2, 0.7, 1.3, 2.0, 7.5, math.inf])
def test_ridgeless_closed_form_matches_profile(zeta):
    assert checks.ridgeless_risk(zeta, RHO2, SIGMA2) == pytest.approx(
        mn2ls_profile(zeta, ENERGY), rel=1e-12)


@pytest.mark.parametrize("gamma", [0.3, 0.9, 1.5, 4.0])
def test_dense_grid_minimum_matches_monotonized_profile(gamma):
    assert checks.monotonized_ridgeless(gamma, RHO2, SIGMA2) == pytest.approx(mono(gamma), rel=1e-10)


@pytest.mark.parametrize("gamma,snr", [(0.5, 4.0), (1.2, 4.0), (2.0, 4.0), (3.0, 12.0)])
def test_onestep_bruteforce_matches_optimum(gamma, snr):
    want = optimize_onestep_iso(gamma, snr).risk + 1.0
    assert checks.onestep_bruteforce(gamma, snr, 1.0, points=401) == pytest.approx(want, rel=1e-9)


# -- sweep rows ---------------------------------------------------------------


def _row(proc, gamma, n, mean, se, oracle=None, analytic=None):
    m = mono(gamma)
    return {"gamma": gamma, "p": round(gamma * n), "proc": proc, "M": 1,
            "mean_risk": mean, "se_risk": se,
            "mean_oracle_risk": mean if oracle is None else oracle, "se_oracle_risk": se,
            "analytic": (mn2ls_profile(gamma, ENERGY) if proc == "base" else m)
            if analytic is None else analytic,
            "monotonized_analytic": m, "n_fail": 0}


def test_base_rows_shifted_mean_fails():
    n = 400
    good = [_row("base", g, n, checks.ridgeless_risk(round(g * n) / n, RHO2, SIGMA2), 0.01)
            for g in (0.3, 2.0)]
    assert checks.check_base_rows(good, n, RHO2, SIGMA2) == []
    shifted = [dict(r, mean_risk=r["mean_risk"] * 1.3) for r in good]
    assert len(checks.check_base_rows(shifted, n, RHO2, SIGMA2)) == 2
    wrong_mono = [dict(good[0], monotonized_analytic=good[0]["monotonized_analytic"] * (1 + 1e-5))]
    assert checks.check_base_rows(wrong_mono, n, RHO2, SIGMA2)
    wrong_analytic = [dict(good[1], analytic=good[1]["analytic"] + 1e-6)]
    assert checks.check_base_rows(wrong_analytic, n, RHO2, SIGMA2)


def test_zero_rows_fail_on_each_statement():
    n, n_te, block = 400, 40, 20
    g = 2.0
    target = checks.grid_ridgeless_target(g, n, n_te, block, RHO2, SIGMA2)
    good = _row("zero", g, n, target + 0.3, 0.05, oracle=target)
    assert checks.check_zero_rows([good], n, n_te, block, RHO2, SIGMA2) == []
    below_oracle = dict(good, mean_risk=target - 0.01)
    above_target = dict(good, mean_oracle_risk=target * 1.2)
    off_mono = dict(good, monotonized_analytic=good["monotonized_analytic"] + 1e-4)
    off_analytic = dict(good, analytic=good["analytic"] + 1e-4)
    for bad in (below_oracle, above_target, off_mono, off_analytic):
        assert checks.check_zero_rows([bad], n, n_te, block, RHO2, SIGMA2)


def test_grid_target_uses_the_grid_ratios():
    # n = 400, n_te = 40, block = 20: sizes 340, 320, ..., 40; p = 800
    ratios = [800 / k for k in range(340, 39, -20)] + [math.inf]
    want = min(checks.ridgeless_risk(z, RHO2, SIGMA2) for z in ratios)
    assert checks.grid_ridgeless_target(2.0, 400, 40, 20, RHO2, SIGMA2) == pytest.approx(want, rel=1e-14)


def test_one_rows_fail_on_shifted_optimum_and_selection():
    g = 1.5
    opt = optimize_onestep_iso(g, RHO2 / SIGMA2).risk + 1.0
    good = _row("one", g, 400, 4.0, 0.05, oracle=3.9, analytic=opt)
    assert checks.check_one_rows([good], RHO2, SIGMA2) == []
    assert checks.check_one_rows([dict(good, analytic=opt * (1 + 1e-4))], RHO2, SIGMA2)
    assert checks.check_one_rows([dict(good, mean_risk=3.8)], RHO2, SIGMA2)


# -- l1 fits and selection ----------------------------------------------------


def test_selection_must_be_first_minimizer():
    est = {1: 2.0, 2: 1.5, 3: 1.5, "null": 3.0}
    assert checks.check_selection(est, 2) == []
    assert checks.check_selection(est, 3)
    assert checks.check_selection(est, 1)


def test_oracle_inequality_fails_on_bad_selection():
    est = {1: 1.0, 2: 1.1}
    true = {1: 1.02, 2: 1.05}
    assert checks.check_oracle_inequality(est, true, 1) == []
    # a selection the estimates do not support, with estimates that track the
    # truth; check_selection rejects it too, since a minimizing selection
    # satisfies the inequality by algebra
    assert checks.check_oracle_inequality({1: 1.0, 2: 2.0}, {1: 1.0, 2: 2.0}, 2)


@pytest.fixture(scope="module")
def sparse_data():
    model = riskmono.DataModel.sparse(60, 0.1, 3.0, 1.0)
    data, beta0 = riskmono.generate(model, 25, 4)
    return data.features, data.response


def test_mn1ls_certificate(sparse_data):
    X, y = sparse_data
    beta = riskmono.fit_mn1ls(riskmono.Dataset(X, y)).coefficients
    assert checks.check_mn1ls_certificate(X, y, beta) == []
    # another feasible point: add a null-space direction, so the l1 norm grows
    null = np.linalg.svd(X)[2][-1]
    assert any("gap" in m for m in checks.check_mn1ls_certificate(X, y, beta + 0.05 * null))
    # perturbed coefficients leave the constraint set
    bumped = beta.copy()
    bumped[0] += 1e-3
    assert any("infeasible" in m for m in checks.check_mn1ls_certificate(X, y, bumped))


def test_lasso_kkt(sparse_data):
    X, y = sparse_data
    beta = riskmono.fit_lasso(riskmono.Dataset(X, y), 0.5).coefficients
    assert checks.check_lasso_kkt(X, y, beta, 0.5) == []
    bumped = beta.copy()
    bumped[np.argmax(np.abs(beta))] *= 1.001
    assert checks.check_lasso_kkt(X, y, bumped, 0.5)
    assert checks.check_lasso_kkt(X, y, beta, 0.6)


# -- profile curves -------------------------------------------------------------


GAMMAS = (0.2, 0.6, 1.4, 3.0, 8.0)


def test_mn2ls_curve():
    analytic = [mn2ls_profile(g, ENERGY) for g in GAMMAS]
    m = [mono(g) for g in GAMMAS]
    assert checks.check_mn2ls_curve(GAMMAS, analytic, m, RHO2, SIGMA2) == []
    assert checks.check_mn2ls_curve(GAMMAS, [a + 1e-6 for a in analytic], m, RHO2, SIGMA2)
    assert checks.check_mn2ls_curve(GAMMAS, analytic, [v * (1 - 1e-5) for v in m], RHO2, SIGMA2)
    # a monotonized curve that drops, and one above the profile
    dropping = m[:2] + [m[1] * 0.9] + m[3:]
    assert any("drops" in s for s in checks._check_monotone_below("x", GAMMAS, analytic, dropping))
    assert any("above" in s for s in checks._check_monotone_below("x", GAMMAS, m, analytic))


def test_onestep_curve():
    analytic = [optimize_onestep_iso(g, RHO2).risk + 1.0 for g in GAMMAS]
    m = [mono(g) for g in GAMMAS]
    assert checks.check_onestep_curve(GAMMAS, analytic, m, RHO2, SIGMA2) == []
    assert checks.check_onestep_curve(GAMMAS, [a * (1 + 1e-4) for a in analytic], m, RHO2, SIGMA2)
    assert checks.check_onestep_curve(GAMMAS, [v * 1.01 for v in m], m, RHO2, SIGMA2)


def test_mn1ls_curve():
    prior = Mn1lsPrior(0.01, 20.0)
    gammas = (0.6, 2.0)
    analytic = [mn1ls_profile(g, prior, SIGMA2) for g in gammas]
    m = [1.2, 1.3]  # any non-decreasing curve below the profile
    assert checks.check_mn1ls_curve(gammas, analytic, m, 0.01, 20.0, SIGMA2) == []
    assert checks.check_mn1ls_curve(gammas, [analytic[0] * 1.01, analytic[1]], m, 0.01, 20.0, SIGMA2)
    assert checks.check_mn1ls_curve(gammas, [analytic[0], analytic[1] * (1 + 1e-4)], m,
                                    0.01, 20.0, SIGMA2)


# -- whole-workload checks --------------------------------------------------------


def test_dense_workload_check_on_program_output():
    wl = workload.DenseSweeps(3, ("base", "zero"), (0.5, 2.0), block=20, reps=3)
    out, failed = wl.run_round(0, workload.NoTrace())
    assert failed == 0
    assert wl.check(0, out, out) == []
    assert wl.check(1, out, out) == []
    # a second round that differs from the first
    changed = [[dict(r, mean_risk=r["mean_risk"] + 1e-9) for r in rows] for rows in out]
    assert any("round 1" in m for m in wl.check(1, changed, out))
    shifted = [[dict(r, mean_risk=r["mean_risk"] * 1.5) for r in out[0]], out[1]]
    assert wl.check(0, shifted, shifted)


def test_sparse_workload_check_on_program_output():
    wl = workload.SparseL1(5)
    wl.PER_ROUND = 1
    out, failed = wl.run_round(0, workload.NoTrace())
    assert failed == 0
    assert wl.check(0, out, out) == []
    res = dict(out[0])
    table, pred = res[("mn1ls", "zero_step")]
    worst = max((r for r in table.rows if r.estimate is not None), key=lambda r: r.estimate.value)
    res[("mn1ls", "zero_step")] = (replace(table, selected=worst.index), pred)
    assert wl.check(0, [res], [res])


def test_benchmark_json_lists_the_traced_metrics():
    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert listed == tracing.PER_LAYER


def test_profiles_check_skips_failed_points():
    wl = workload.ProfilesCurve(11)
    gammas = wl.curves[0][1]
    wl.curves = (("mn2ls", gammas),)
    points = [(mn2ls_profile(g, ENERGY), mono(g)) for g in gammas]
    assert wl.check(0, [points], [points]) == []
    # a point that failed (counted in `failed`) is not a wrong output, and a
    # rerun that fails the same way is the same output
    points[3] = (math.nan, math.nan)
    assert wl.check(0, [points], [points]) == []
    assert wl.check(1, [list(points)], [points]) == []
    shifted = [(a * 1.01, m) for a, m in points]
    assert wl.check(0, [shifted], [shifted])
