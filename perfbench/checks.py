"""Output checks for the benchmark workloads.

Every check recomputes what it compares with from the benchmark's own closed
forms and solvers, or tests a property the method must have; none compares
with a stored copy of earlier output.  Each check returns a list of failure
messages, empty when the output passes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, stats

# Relative tolerances for deterministic analytic values.  The CLI prints 12
# significant digits, so exact formulas are compared at 1e-9.
EXACT_RTOL = 1e-9
MIN_RTOL = 1e-7  # a minimum found by the program's golden-section refinement
ONESTEP_RTOL = 1e-6  # the program's stationarity roots against a polished grid
TAU_RTOL = 1e-6  # lassoless tau^2 against the benchmark's own root

# Allowances for sweep means over a handful of replications: SE_Z standard
# errors plus a relative share of the target.  BASE_RTOL is AC-04's 10 %;
# ZERO_RTOL covers the finite-n excess of the best candidate over the
# asymptotic closed form, which standard errors from few replications miss.
BASE_RTOL = 0.10
ZERO_RTOL = 0.05
SE_Z = 3.0

# relative LP duality gap and constraint residual of an mn1ls fit; on the
# sparse_l1 shapes (n = 100, p = 300) both were below 4e-13
LP_RTOL = 1e-8
# largest lasso KKT violation; coordinate descent stops at 1e-10 changes
KKT_TOL = 1e-9


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# isotropic ridgeless closed form, written in u = 1/zeta so zeta = inf is u = 0


def ridgeless_risk_u(u, rho2: float, sigma2: float):
    """Isotropic ridgeless risk at aspect ratio zeta = 1/u (u = 0: zeta = inf).

    u > 1 (zeta < 1): sigma2 / (1 - zeta).  u < 1 (zeta > 1):
    rho2 (1 - 1/zeta) + sigma2 / (zeta - 1) + sigma2.  u = 1 diverges.
    """
    u = np.asarray(u, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        under = sigma2 * u / (u - 1.0)
        over = rho2 * (1.0 - u) + sigma2 * u / (1.0 - u) + sigma2
    out = np.where(u > 1.0, under, over)
    return np.where(u == 1.0, np.inf, out)


def ridgeless_risk(zeta: float, rho2: float, sigma2: float) -> float:
    return float(ridgeless_risk_u(0.0 if math.isinf(zeta) else 1.0 / zeta, rho2, sigma2))


def _polished_min(f, lo: float, hi: float, points: int) -> float:
    """Minimum of f on [lo, hi]: a dense grid, then a bounded scalar polish
    between the grid neighbours of the best grid point."""
    grid = np.linspace(lo, hi, points)
    vals = f(grid)
    i = int(np.argmin(vals))
    best = float(vals[i])
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, points - 1)]
    if b > a:
        res = optimize.minimize_scalar(
            lambda t: float(f(t)), bounds=(a, b), method="bounded",
            options={"xatol": 1e-14 * max(1.0, abs(b))},
        )
        best = min(best, float(res.fun))
    return best


def monotonized_ridgeless(gamma: float, rho2: float, sigma2: float) -> float:
    """min over zeta in [gamma, inf] of the isotropic ridgeless risk, by dense
    grid minimization over u = 1/zeta in [0, 1/gamma]."""
    f = lambda u: ridgeless_risk_u(u, rho2, sigma2)
    hi = 1.0 / gamma
    if hi <= 1.0:
        return _polished_min(f, 0.0, hi, 20_001)
    # zeta < 1 is increasing in zeta, so its part of [gamma, 1) peaks at 1
    # and bottoms out at gamma itself
    over = _polished_min(f, 0.0, 1.0 - 1e-12, 20_001)
    return min(over, float(f(hi)))


def grid_ridgeless_target(gamma: float, n: int, n_te: int, block: int,
                          rho2: float, sigma2: float) -> float:
    """The ridgeless risk minimized over the aspect ratios the zero-step grid
    can fit, {p / n_xi} and zeta = inf (the null candidate).

    The subsample sizes are n_xi = n_tr - xi * block for xi = 1 ..
    ceil(n_tr / block - 2), n_tr = n - n_te, with p = round(gamma * n).
    """
    p = max(1, round(gamma * n))
    n_tr = n - n_te
    xi_max = math.ceil(n_tr / block - 2)
    sizes = [n_tr - xi * block for xi in range(1, xi_max + 1)]
    u = np.array([k / p for k in sizes] + [0.0])
    return float(np.min(ridgeless_risk_u(u, rho2, sigma2)))


def onestep_bruteforce(gamma: float, rho2: float, sigma2: float, points: int = 1201) -> float:
    """Minimum of the iterated ridgeless risk R(z2; R(z1) - sigma2) over
    1/z1 + 1/z2 <= 1/gamma, by a dense grid over (1/z1, share of the rest
    given to 1/z2), polished by Nelder-Mead from the best grid point."""
    budget = 1.0 / gamma

    def risk(u1, frac):
        u2 = frac * (budget - u1)
        r1 = ridgeless_risk_u(u1, rho2, sigma2)
        with np.errstate(invalid="ignore"):
            r = ridgeless_risk_u(u2, r1 - sigma2, sigma2)
        # no adjustment (u2 = 0) keeps the pilot risk even where it diverges
        return np.where(u2 == 0.0, r1, np.where(np.isnan(r), np.inf, r))

    u1 = np.linspace(0.0, budget, points)[:, None]
    frac = np.linspace(0.0, 1.0, points)[None, :]
    vals = risk(u1, frac)
    i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
    best = float(vals[i, j])

    def obj(x):
        a = min(max(x[0], 0.0), budget)
        b = min(max(x[1], 0.0), 1.0)
        return float(risk(a, b))

    res = optimize.minimize(obj, x0=[u1[i, 0], frac[0, j]], method="Nelder-Mead",
                            options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 4000})
    return min(best, float(res.fun))


# ---------------------------------------------------------------------------
# sweep tables


def check_base_rows(rows, n: int, rho2: float, sigma2: float) -> list[str]:
    """Base rows follow the closed-form ridgeless risk at p/n, within a
    relative allowance plus z standard errors; the analytic columns are the
    closed form at gamma and its monotonization."""
    bad = []
    for row in rows:
        g = row["gamma"]
        target = ridgeless_risk(row["p"] / n, rho2, sigma2)
        allowance = BASE_RTOL * target + SE_Z * row["se_risk"]
        if not abs(row["mean_risk"] - target) <= allowance:
            bad.append(f"base gamma={g:.4g}: mean risk {row['mean_risk']:.6g} "
                       f"vs closed form {target:.6g} +- {allowance:.3g}")
        if not _close(row["analytic"], ridgeless_risk(g, rho2, sigma2), EXACT_RTOL):
            bad.append(f"base gamma={g:.4g}: analytic {row['analytic']!r}")
        bad += _check_monotonized(row, rho2, sigma2)
    return bad


def _check_monotonized(row, rho2: float, sigma2: float) -> list[str]:
    want = monotonized_ridgeless(row["gamma"], rho2, sigma2)
    if not _close(row["monotonized_analytic"], want, MIN_RTOL):
        return [f"{row['proc']} gamma={row['gamma']:.4g}: monotonized_analytic "
                f"{row['monotonized_analytic']!r} vs dense-grid minimum {want!r}"]
    return []


def _check_oracle_below_selected(row) -> list[str]:
    if not row["mean_risk"] >= row["mean_oracle_risk"] * (1.0 - 1e-12):
        return [f"{row['proc']} gamma={row['gamma']:.4g}: selected risk "
                f"{row['mean_risk']:.6g} below best candidate {row['mean_oracle_risk']:.6g}"]
    return []


def check_zero_rows(rows, n: int, n_te: int, block: int, rho2: float, sigma2: float) -> list[str]:
    """Zero-step rows: selected >= best candidate; best candidate <= the grid
    target plus ZERO_RTOL and SE_Z se; analytic and monotonized columns
    equal the dense-grid minimum of the closed form."""
    bad = []
    for row in rows:
        g = row["gamma"]
        bad += _check_oracle_below_selected(row)
        target = grid_ridgeless_target(g, n, n_te, block, rho2, sigma2)
        allowance = ZERO_RTOL * target + SE_Z * row["se_oracle_risk"]
        if not row["mean_oracle_risk"] <= target + allowance:
            bad.append(f"zero gamma={g:.4g}: best candidate {row['mean_oracle_risk']:.6g} "
                       f"> grid target {target:.6g} + {allowance:.3g}")
        bad += _check_monotonized(row, rho2, sigma2)
        if row["analytic"] != row["monotonized_analytic"]:
            bad.append(f"zero gamma={g:.4g}: analytic differs from monotonized_analytic")
    return bad


def check_one_rows(rows, rho2: float, sigma2: float) -> list[str]:
    """One-step rows: the analytic column is the brute-force optimum of the
    iterated ridgeless risk; selected >= best candidate; the monotonized
    column is the dense-grid minimum and is not below the one-step optimum."""
    bad = []
    for row in rows:
        g = row["gamma"]
        bad += _check_oracle_below_selected(row)
        want = onestep_bruteforce(g, rho2, sigma2)
        if not _close(row["analytic"], want, ONESTEP_RTOL):
            bad.append(f"one gamma={g:.4g}: analytic {row['analytic']!r} "
                       f"vs brute-force optimum {want!r}")
        bad += _check_monotonized(row, rho2, sigma2)
        if row["analytic"] > row["monotonized_analytic"] * (1.0 + EXACT_RTOL):
            bad.append(f"one gamma={g:.4g}: one-step optimum above monotonized profile")
    return bad


# ---------------------------------------------------------------------------
# l1 fits and cross-validated selection


def check_selection(estimates: dict, selected) -> list[str]:
    """The selected index is the first minimizer of the finite estimates in
    table order."""
    finite = [(k, v) for k, v in estimates.items() if math.isfinite(v)]
    if not finite:
        return ["no finite risk estimate"]
    first_min = min(finite, key=lambda kv: kv[1])[0]
    if selected != first_min:
        return [f"selected {selected!r} ({estimates.get(selected)!r}) but the "
                f"estimates are minimized by {first_min!r} ({estimates[first_min]!r})"]
    return []


def check_oracle_inequality(estimates: dict, true_risks: dict, selected) -> list[str]:
    """R(selected) <= min R + 2 max |Rhat - R| over the fitted candidates.

    When `selected` minimizes the estimates over the same keys, as
    check_selection demands, this follows by algebra: R(sel) <= Rhat(sel) +
    delta <= Rhat(best) + delta <= R(best) + 2 delta.  It states the
    guarantee the paper gives and guards no failure of its own."""
    keys = list(true_risks)
    delta = max(abs(estimates[k] - true_risks[k]) for k in keys)
    best = min(true_risks.values())
    bound = best + 2.0 * delta
    if not true_risks[selected] <= bound * (1.0 + 1e-12):
        return [f"oracle inequality: R(selected) = {true_risks[selected]:.6g} "
                f"> min R + 2 delta = {bound:.6g}"]
    return []


def true_risk(beta, beta0, sigma2: float) -> float:
    d = np.asarray(beta) - np.asarray(beta0)
    return float(d @ d + sigma2)


def check_mn1ls_certificate(X, y, beta) -> list[str]:
    """LP duality certificate of min ||b||_1 s.t. X b = yhat, yhat the
    projection of y onto col(X): beta must be feasible, and its l1 norm must
    equal the optimum of the dual max yhat'nu s.t. ||X'nu||_inf <= 1, solved
    here."""
    X = np.asarray(X, dtype=np.float64)
    yhat = _projection(X, y)
    bad = _feasibility(X, yhat, beta)
    p = X.shape[1]
    dual = optimize.linprog(
        c=-yhat, A_ub=np.vstack([X.T, -X.T]), b_ub=np.ones(2 * p),
        bounds=(None, None), method="highs",
    )
    if not dual.success:
        return bad + [f"dual LP failed: {dual.message}"]
    primal = float(np.sum(np.abs(beta)))
    dual_value = -float(dual.fun)
    gap = abs(primal - dual_value) / max(1.0, abs(dual_value))
    if not gap <= LP_RTOL:
        bad.append(f"mn1ls duality gap {gap:.3e}: ||beta||_1 = {primal:.12g}, "
                   f"dual optimum {dual_value:.12g}")
    return bad


def _projection(X, y):
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    return X @ coef


def _feasibility(X, yhat, beta) -> list[str]:
    resid = float(np.max(np.abs(X @ beta - yhat)))
    if not resid <= LP_RTOL * max(1.0, float(np.max(np.abs(yhat)))):
        return [f"mn1ls fit infeasible: max |X beta - yhat| = {resid:.3e}"]
    return []


def check_mn1ls_feasible(X, y, beta) -> list[str]:
    """The primal half of the certificate: X beta = yhat."""
    X = np.asarray(X, dtype=np.float64)
    return _feasibility(X, _projection(X, y), beta)


def lasso_kkt_residual(X, y, beta, lam: float) -> float:
    """Largest violation of the lasso optimality conditions for
    (1/2m) ||y - X b||^2 + lam ||b||_1."""
    X = np.asarray(X, dtype=np.float64)
    g = X.T @ (y - X @ beta) / X.shape[0]
    active = beta != 0.0
    viol = np.where(active, np.abs(g - lam * np.sign(beta)), np.maximum(np.abs(g) - lam, 0.0))
    return float(np.max(viol))


def check_lasso_kkt(X, y, beta, lam: float) -> list[str]:
    r = lasso_kkt_residual(X, y, beta, lam)
    if not r <= KKT_TOL:
        return [f"lasso KKT residual {r:.3e} > {KKT_TOL:.0e}"]
    return []


# ---------------------------------------------------------------------------
# analytic curves from `riskmono profile`


def _check_monotone_below(kind: str, gammas, profile, monotonized) -> list[str]:
    bad = []
    for g, r, m in zip(gammas, profile, monotonized):
        if not m <= r * (1.0 + EXACT_RTOL):
            bad.append(f"{kind} gamma={g:.4g}: monotonized {m!r} above profile {r!r}")
    for (g0, m0), (g1, m1) in zip(zip(gammas, monotonized), zip(gammas[1:], monotonized[1:])):
        if not m1 >= m0 * (1.0 - EXACT_RTOL):
            bad.append(f"{kind}: monotonized curve drops from {m0!r} at gamma={g0:.4g} "
                       f"to {m1!r} at gamma={g1:.4g}")
    return bad


def check_mn2ls_curve(gammas, analytic, monotonized, rho2: float, sigma2: float) -> list[str]:
    bad = []
    for g, a, m in zip(gammas, analytic, monotonized):
        want = ridgeless_risk(g, rho2, sigma2)
        if not _close(a, want, EXACT_RTOL):
            bad.append(f"mn2ls gamma={g:.4g}: profile {a!r} vs closed form {want!r}")
        want = monotonized_ridgeless(g, rho2, sigma2)
        if not _close(m, want, MIN_RTOL):
            bad.append(f"mn2ls gamma={g:.4g}: monotonized {m!r} vs dense-grid minimum {want!r}")
    return bad + _check_monotone_below("mn2ls", gammas, analytic, monotonized)


def check_onestep_curve(gammas, analytic, monotonized, rho2: float, sigma2: float) -> list[str]:
    """`profile --kind onestep`: analytic is the optimized one-step risk,
    monotonized the monotonized ridgeless profile."""
    bad = []
    profile = [ridgeless_risk(g, rho2, sigma2) for g in gammas]
    for g, a, m in zip(gammas, analytic, monotonized):
        if not a <= m * (1.0 + EXACT_RTOL):
            bad.append(f"onestep gamma={g:.4g}: optimized {a!r} above monotonized {m!r}")
        want = onestep_bruteforce(g, rho2, sigma2, points=601)
        if not _close(a, want, ONESTEP_RTOL):
            bad.append(f"onestep gamma={g:.4g}: optimized {a!r} vs brute force {want!r}")
    return bad + _check_monotone_below("onestep", gammas, profile, monotonized)


def _soft_mse(theta: float, tau: float, alpha: float) -> float:
    """E[(soft(theta + tau Z; alpha tau) - theta)^2], Z ~ N(0, 1), by quadrature."""
    thr = alpha * tau

    def err2(z):
        x = theta + tau * z
        s = math.copysign(max(abs(x) - thr, 0.0), x)
        return (s - theta) ** 2 * stats.norm.pdf(z)

    # split at the kinks of the soft threshold
    k1, k2 = (-thr - theta) / tau, (thr - theta) / tau
    total = 0.0
    for a, b in ((-np.inf, k1), (k1, k2), (k2, np.inf)):
        total += integrate.quad(err2, a, b, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
    return total


def lassoless_tau2(phi: float, epsilon: float, magnitude: float, sigma2: float,
                   guess: float) -> float:
    """tau^2 of the lassoless soft-threshold fixed point at aspect ratio phi > 1:
    tau^2 = sigma2 + E[(soft(Theta + tau Z; alpha tau) - Theta)^2] with alpha
    chosen so that P(|Theta + tau Z| > alpha tau) = 1/phi.  Solved near
    `guess` (a tau^2) with scipy's normal law and Brent's method."""

    def alpha_of(tau):
        def f(alpha):
            exceed = lambda th: (stats.norm.sf(alpha - th / tau) + stats.norm.sf(alpha + th / tau))
            return epsilon * exceed(magnitude) + (1 - epsilon) * exceed(0.0) - 1.0 / phi
        return optimize.brentq(f, 0.0, 50.0, xtol=1e-15, rtol=1e-14)

    def outer(tau):
        alpha = alpha_of(tau)
        mse = epsilon * _soft_mse(magnitude, tau, alpha) + (1 - epsilon) * _soft_mse(0.0, tau, alpha)
        return sigma2 + mse - tau * tau

    t0 = math.sqrt(guess)
    lo, hi = t0 * 0.9, t0 * 1.1
    tau = optimize.brentq(outer, lo, hi, xtol=1e-14, rtol=1e-13)
    return tau * tau


def check_mn1ls_curve(gammas, analytic, monotonized, epsilon: float, magnitude: float,
                      sigma2: float) -> list[str]:
    bad = []
    for g, a in zip(gammas, analytic):
        if g < 1.0:
            want = sigma2 / (1.0 - g)
            if not _close(a, want, EXACT_RTOL):
                bad.append(f"mn1ls gamma={g:.4g}: profile {a!r} vs sigma2/(1-gamma) {want!r}")
            continue
        try:
            want = lassoless_tau2(g, epsilon, magnitude, sigma2, a)
        except ValueError as exc:  # no sign change near the reported tau
            bad.append(f"mn1ls gamma={g:.4g}: no fixed point near tau^2 = {a!r} ({exc})")
            continue
        if not _close(a, want, TAU_RTOL):
            bad.append(f"mn1ls gamma={g:.4g}: tau^2 {a!r} vs re-solved {want!r}")
    return bad + _check_monotone_below("mn1ls", gammas, analytic, monotonized)
