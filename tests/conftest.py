"""Shared fixtures and independent oracles used across the test suite.

The oracles here are deliberately naive (dense enumeration, direct solves,
Monte Carlo) so they stay independent of the library code paths they check.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog

from riskmono import profiles
from riskmono.core import Dataset, LinearPredictor
from riskmono.monotonize import zero_step_grid
from riskmono.predictors import fit_mn2ls


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_dataset(rng, n, p, sigma=1.0, beta0=None):
    X = rng.standard_normal((n, p))
    if beta0 is None:
        beta0 = rng.standard_normal(p)
    y = X @ beta0 + sigma * rng.standard_normal(n)
    return Dataset(X, y), beta0


def ols_oracle(X, y):
    """Normal-equations solve; valid for full column rank."""
    return np.linalg.solve(X.T @ X, X.T @ y)


def min_norm_interpolant_oracle(X, y):
    """Projected least squares X'(XX')^{-1} y; valid for full row rank."""
    return X.T @ np.linalg.solve(X @ X.T, y)


def l1_vertex_oracle(X, y, feas_tol=1e-9):
    """Exhaustive enumeration of basic feasible solutions of the LP

        min 1'(b+ + b-)  s.t.  [X, -X] [b+; b-] = y,  b+, b- >= 0,

    returning the minimum l1 norm.  Assumes X has full row rank (the optimum
    of a feasible bounded LP is attained at a basic feasible solution)."""
    n, p = X.shape
    A = np.hstack([X, -X])
    best = np.inf
    for cols in combinations(range(2 * p), n):
        sub = A[:, cols]
        try:
            sol = np.linalg.solve(sub, y)
        except np.linalg.LinAlgError:
            continue
        if np.min(sol) < -feas_tol:
            continue
        best = min(best, float(np.sum(np.maximum(sol, 0.0))))
    return best


def l1_lp_oracle(X, y, feas_tol=1e-9):
    """Minimum l1-norm least-squares coefficients by HiGHS: minimize
    ||b||_1 s.t. X b = yhat, yhat the projection of y onto col(X), as a
    linear program in the b = b+ - b- split.  Unlike l1_vertex_oracle it
    needs neither full row rank nor a small p."""
    n, p = X.shape
    ls, *_ = np.linalg.lstsq(X, y, rcond=1e-12 * max(n, p))
    res = linprog(
        c=np.ones(2 * p),
        A_eq=np.hstack([X, -X]),
        b_eq=X @ ls,
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": feas_tol, "dual_feasibility_tolerance": feas_tol},
    )
    assert res.success, res.message
    return res.x[:p] - res.x[p:]


def stack_datasets(d1, d2):
    """One training matrix holding d1's rows then d2's, plus both index sets."""
    train = Dataset(
        np.vstack([d1.features, d2.features]), np.concatenate([d1.response, d2.response])
    )
    return train, np.arange(d1.n), np.arange(d1.n, d1.n + d2.n)


def onestep_ingredient_closed_form(base, d1, d2):
    """One-step ingredient as (I - S2^+ S2) beta_pilot + mn2ls(d2), with the
    pilot fitted on d1; an independent cross-check of the library's direct
    residual construction.  An empty (or None) d2 returns the pilot."""
    pilot = base.fit(d1)
    if d2 is None or d2.n == 0:
        return pilot
    S2 = d2.features.T @ d2.features / d2.n
    rcond = 1e-12 * max(d2.n, d2.p)
    proj = np.linalg.pinv(S2, rcond=rcond) @ S2
    direct = fit_mn2ls(d2)
    beta = (np.eye(d2.p) - proj) @ pilot.coefficients + direct.coefficients
    return LinearPredictor(beta)


def grid_monotonized_profile(gamma, n, n_te, block, profile):
    """Finite-n zero-step target: the profile minimized over the aspect
    ratios the zero-step grid offers, {p / n_xi} and zeta = inf (the null
    candidate), with p = round(gamma n) as in the sweep.

    Unlike min_{zeta >= gamma} R(zeta), this only reaches the ratios of the
    subsample sizes a candidate is fitted on, all of which exceed p / n since
    n_xi <= n - n_te - block.  Singular points (profile = +inf, e.g. the
    ridgeless profile at n_xi = p) are never selected.
    """
    p = max(1, round(gamma * n))
    ratios = [p / k for _, k in zero_step_grid(n, n_te, block)] + [math.inf]
    return min(profile(z) for z in ratios)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def scan_monotonized_profile(gamma, profile, scan_points=400):
    """Per-gamma min over zeta in [gamma, inf] of profile(zeta): a log scan of
    its own from gamma to max(1e6, 10 gamma) plus zeta = inf, refined by
    golden-section search around the best scan point to relative tolerance
    1e-6 in log zeta.  +inf values are skipped.  The library's shared-scan
    `monotonize_curve` must agree with it gamma by gamma."""
    upper = max(1e6, 10.0 * gamma)
    zs = np.exp(np.linspace(math.log(gamma), math.log(upper), scan_points))
    zs[0] = gamma
    vals = np.array([profile(z) for z in zs])
    best_inf = profile(math.inf)
    finite = np.isfinite(vals)
    if not np.any(finite):
        return best_inf
    i = int(np.argmin(np.where(finite, vals, math.inf)))
    best = float(vals[i])

    lo = zs[i - 1] if i > 0 else zs[i]
    hi = zs[i + 1] if i + 1 < len(zs) else zs[i]
    a, b = math.log(lo), math.log(hi)
    f = lambda t: profile(math.exp(t))
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > 1e-6 * max(1.0, abs(a) + abs(b)):
        if f1 <= f2 or math.isinf(f2):
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    for cand in (f1, f2, best, best_inf):
        if math.isfinite(cand) and cand < best:
            best = cand
    return min(best, best_inf)


def mn2ls_profile_isotropic(phi, rho2, sigma2):
    """Closed-form isotropic ridgeless profile, independent of the library's
    fixed-point solver."""
    if not phi > 0.0:
        raise ValueError(f"aspect ratio must be positive, got {phi}")
    if math.isinf(phi):
        return rho2 + sigma2
    if phi == 1.0:
        return math.inf
    if phi < 1.0:
        return sigma2 / (1.0 - phi)
    return rho2 * (1.0 - 1.0 / phi) + sigma2 / (phi - 1.0) + sigma2


def onestep_profile_iterated(phi1, phi2, rho2, sigma2):
    """Isotropic one-step risk via the iterated ridgeless formula: apply the
    base profile at phi2 with the signal energy reduced to R(phi1) - sigma^2.
    A second code path for the library's `onestep_profile`."""
    base = mn2ls_profile_isotropic(phi1, rho2, sigma2)
    if math.isinf(phi2):
        return base
    if math.isinf(base) and phi2 > 1.0:
        return math.inf
    return mn2ls_profile_isotropic(phi2, base - sigma2, sigma2)


def gamma_star(snr):
    """For snr above snr_star: the aspect ratio where the underparameterized
    branch gamma/(1 - gamma) of the optimized one-step risk hands over to the
    constrained split optimum.  Finds its root through `profiles.brentq`, so
    a test that patches the library's root finder sees this call too."""
    if snr <= profiles.snr_star():
        raise ValueError("gamma_star is defined for snr > snr_star()")

    def f(g):
        return g / (1.0 - g) - profiles._overparam_optimum(g, snr)[0]

    return profiles.brentq(f, 1e-6, 1.0 - 1e-9, xtol=1e-15)
