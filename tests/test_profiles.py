import collections
import inspect
import math
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq as scipy_brentq
from scipy.special import ndtr

from riskmono import (
    BaseProcedure,
    Dataset,
    Mn1lsPrior,
    ModelEnergy,
    mn1ls_profile,
    mn2ls_profile,
    monotonize_curve,
    optimize_onestep_iso,
    profiles,
    solve_v,
)
from riskmono.profiles import (
    SpectralInputs,
    monotonize_profile,
    onestep_profile,
    reference_profiles,
    snr_star,
)
from riskmono.risk_estimation import closed_form_risk

from conftest import (
    gamma_star,
    grid_monotonized_profile,
    mn2ls_profile_isotropic,
    onestep_profile_iterated,
    scan_monotonized_profile,
)

INF = math.inf


class TestSolveV:
    def test_isotropic_closed_forms(self):
        # point-mass spectrum: v = 1/(phi-1), tv = phi/(phi-1)^3, tvg = 1/(phi-1)
        fp = solve_v(2.0)
        assert abs(fp.v - 1.0) < 1e-12
        fp = solve_v(1.1)
        assert abs(fp.v - 10.0) < 1e-9
        assert abs(fp.tvg - 10.0) < 1e-9
        assert abs(fp.tv - 1.1 / 0.1**3) < 1e-6

    def test_two_atom_matches_independent_root_finder(self):
        H = SpectralInputs(((0.5, 0.5), (2.0, 0.5)))
        for phi in (1.3, 2.0, 7.5):
            fp = solve_v(phi, H)
            want = scipy_brentq(
                lambda v: 0.5 * v * 0.5 / (1 + v * 0.5)
                + 0.5 * v * 2.0 / (1 + v * 2.0)
                - 1.0 / phi,
                1e-8,
                1e8,
                xtol=1e-14,
                rtol=8.9e-16,
            )
            assert abs(fp.v - want) < 1e-10

    def test_residual_below_spec_tolerance(self):
        H = SpectralInputs(((0.7, 0.25), (1.0, 0.5), (3.1, 0.25)))
        for phi in (1.05, 2.0, 40.0):
            fp = solve_v(phi, H)
            res = abs(H.integrate(lambda r: fp.v * r / (1 + fp.v * r)) - 1 / phi)
            assert res < 1e-12

    def test_unique_sign_change_on_fine_grid(self):
        H = SpectralInputs(((0.5, 0.5), (2.0, 0.5)))
        phi = 2.5
        vs = np.logspace(-6, 6, 10_000)
        g = np.array(
            [sum(w * v * r / (1 + v * r) for r, w in H.atoms) - 1 / phi for v in vs]
        )
        signs = np.sign(g)
        changes = np.count_nonzero(np.diff(signs) != 0)
        assert changes == 1

    def test_limits_at_large_phi(self):
        fp = solve_v(1e8)
        assert fp.v < 1e-6 and fp.tvg < 1e-6

    @pytest.mark.parametrize("phi", [1.0 + 1e-6, 1e8])
    def test_residual_at_extreme_phi(self, phi):
        # isotropic: v / (1 + v) = 1 / phi, so v = 1 / (phi - 1)
        fp = solve_v(phi)
        assert abs(fp.v / (1.0 + fp.v) - 1.0 / phi) < 1e-12
        assert fp.v == pytest.approx(1.0 / (phi - 1.0), rel=1e-9)

    def test_domain_error(self):
        for phi in (0.5, 1.0):
            with pytest.raises(ValueError):
                solve_v(phi)


class TestMn2lsProfile:
    ENERGY = ModelEnergy(4.0, 1.0)

    def test_isotropic_value_at_two(self):
        # rho^2 (1 - 1/2) + 1/(2-1) + 1 = 4
        assert abs(mn2ls_profile(2.0, self.ENERGY) - 4.0) < 1e-10

    def test_overparam_value_verified_by_simulation(self):
        # 12 replications of (n, p) = (500, 1000); conditional risk near 4
        rng = np.random.default_rng(7)
        risks = []
        for _ in range(12):
            beta0 = rng.normal(0, math.sqrt(4.0 / 1000), size=1000)
            X = rng.standard_normal((500, 1000))
            y = X @ beta0 + rng.standard_normal(500)
            pred = BaseProcedure.mn2ls().fit(Dataset(X, y))
            risks.append(closed_form_risk(pred, beta0, 1.0))
        se = np.std(risks, ddof=1) / math.sqrt(len(risks))
        assert abs(np.mean(risks) - 4.0) < max(4 * se, 0.15)

    def test_null_risk_at_infinity(self):
        assert mn2ls_profile(INF, self.ENERGY) == 5.0

    def test_underparam_value(self):
        # sigma^2/(1 - phi) at phi = 0.5
        assert mn2ls_profile(0.5, ModelEnergy(4.0, 1.0)) == 2.0
        rng = np.random.default_rng(8)
        risks = []
        for _ in range(10):
            beta0 = rng.normal(0, math.sqrt(4.0 / 250), size=250)
            X = rng.standard_normal((500, 250))
            y = X @ beta0 + rng.standard_normal(500)
            pred = BaseProcedure.mn2ls().fit(Dataset(X, y))
            risks.append(closed_form_risk(pred, beta0, 1.0))
        assert abs(np.mean(risks) - 2.0) < 0.1

    def test_divergence_near_interpolation_threshold(self):
        assert mn2ls_profile(1.0, self.ENERGY) == INF
        assert mn2ls_profile(1.0 - 1e-4, self.ENERGY) > 1e3
        assert mn2ls_profile(1.0 + 1e-4, self.ENERGY) > 1e3

    def test_continuity_off_the_singularity(self):
        grid = np.concatenate(
            [np.linspace(0.05, 0.99, 120), np.linspace(1.01, 20.0, 240)]
        )
        vals = np.array([mn2ls_profile(g, self.ENERGY) for g in grid])
        rel = np.abs(np.diff(vals)) / vals[:-1]
        spacing = np.diff(grid) / grid[:-1]
        keep = ~((grid[:-1] < 1.01) & (grid[1:] > 0.99))
        assert np.all(rel[keep] <= 10 * np.maximum(spacing[keep], 1e-3) * 100)

    def test_matches_isotropic_closed_form(self):
        for phi in (0.3, 1.7, 4.0, 100.0, INF):
            a = mn2ls_profile(phi, self.ENERGY)
            b = mn2ls_profile_isotropic(phi, 4.0, 1.0)
            assert a == b or abs(a - b) < 1e-10

    def test_anisotropic_spectrum_runs(self):
        H = SpectralInputs(((0.5, 0.5), (2.0, 0.5)))
        G = SpectralInputs(((1.0, 1.0),))
        val = mn2ls_profile(2.0, self.ENERGY, H, G)
        assert math.isfinite(val) and val > 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            mn2ls_profile(0.0, self.ENERGY)


def mc_tau_alpha_oracle(phi, prior, sigma2, seed=0):
    """Brute-force (tau, alpha) search with Monte-Carlo expectations.

    Coarse 2-d grid, then a refined grid around the best cell with a larger
    antithetic normal sample.  Independent of the closed-form solver path.
    """
    eps, M = prior.epsilon, prior.magnitude

    def residuals(tau, alpha, z):
        # mixture draws: theta = M with prob eps else 0, paired with z
        x_spike = M + tau * z
        x_zero = tau * z
        b = alpha * tau
        p_hat = eps * np.mean(np.abs(x_spike) > b) + (1 - eps) * np.mean(
            np.abs(x_zero) > b
        )
        eta_spike = np.sign(x_spike) * np.maximum(np.abs(x_spike) - b, 0)
        eta_zero = np.sign(x_zero) * np.maximum(np.abs(x_zero) - b, 0)
        mse = eps * np.mean((eta_spike - M) ** 2) + (1 - eps) * np.mean(eta_zero**2)
        r1 = sigma2 + mse - tau**2
        r2 = 1.0 / phi - p_hat
        return abs(r1) / max(tau**2, 1.0) + abs(r2) * 10.0

    rng = np.random.default_rng(seed)
    z_half = rng.standard_normal(40_000)
    z = np.concatenate([z_half, -z_half])
    lo, hi = math.sqrt(sigma2), math.sqrt(sigma2 + eps * M * M) * 1.2
    taus = np.linspace(lo, hi, 60)
    alphas = np.linspace(0.01, 4.0, 60)
    score = np.array([[residuals(t, a, z) for a in alphas] for t in taus])
    it, ia = np.unravel_index(np.argmin(score), score.shape)

    z_half = rng.standard_normal(300_000)
    z = np.concatenate([z_half, -z_half])
    dt = taus[1] - taus[0]
    da = alphas[1] - alphas[0]
    taus2 = np.linspace(max(lo, taus[it] - 2 * dt), taus[it] + 2 * dt, 25)
    alphas2 = np.linspace(max(1e-3, alphas[ia] - 2 * da), alphas[ia] + 2 * da, 25)
    score2 = np.array([[residuals(t, a, z) for a in alphas2] for t in taus2])
    jt, _ = np.unravel_index(np.argmin(score2), score2.shape)
    return taus2[jt] ** 2


def soft_threshold_residuals(phi, prior, sigma2, tau2):
    """Residuals of the (tau, alpha) system at tau = sqrt(tau2), computed
    independently of the library: alpha from the exceedance equation with
    scipy's normal CDF, the threshold MSE by quadrature over Z ~ N(0, 1)."""
    tau, eps, M = math.sqrt(tau2), prior.epsilon, prior.magnitude

    def exceed(alpha):
        return sum(
            w * (ndtr(theta / tau - alpha) + ndtr(-theta / tau - alpha))
            for theta, w in ((M, eps), (0.0, 1.0 - eps))
        )

    alpha = scipy_brentq(lambda a: exceed(a) - 1.0 / phi, 0.0, 50.0, xtol=1e-15, rtol=8.9e-16)
    b = alpha * tau

    def mse(theta):
        def err(z):
            x = theta + tau * z
            eta = math.copysign(max(abs(x) - b, 0.0), x)
            return (eta - theta) ** 2 * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

        kinks = sorted(((b - theta) / tau, (-b - theta) / tau))
        return quad(err, -40.0, 40.0, points=kinks, limit=200, epsabs=1e-14, epsrel=1e-13)[0]

    outer = sigma2 + eps * mse(M) + (1.0 - eps) * mse(0.0) - tau2
    return outer, exceed(alpha) - 1.0 / phi


class TestMn1lsProfile:
    @pytest.mark.parametrize("phi", [1.02, 2.0, 1e4, 1e6])
    def test_system_residuals(self, phi):
        prior = Mn1lsPrior(0.01, 20.0)
        tau2 = mn1ls_profile(phi, prior, 1.0)
        outer, inner = soft_threshold_residuals(phi, prior, 1.0, tau2)
        assert abs(outer) <= 1e-8 * max(1.0, tau2)
        assert abs(inner) <= 1e-10

    def test_limit_at_infinity(self):
        # sigma^2 + eps M^2 with eps = 0.01, M = 20 -> 5  (Fig-1 style setup)
        assert mn1ls_profile(INF, Mn1lsPrior(0.01, 20.0), 1.0) == 5.0

    def test_underparam_branch(self):
        assert mn1ls_profile(0.8, Mn1lsPrior(0.01, 20.0), 1.0) == pytest.approx(5.0)

    def test_interpolation_threshold_diverges(self):
        assert mn1ls_profile(1.0, Mn1lsPrior(0.01, 20.0), 1.0) == INF

    def test_overparam_matches_mc_grid_oracle(self):
        prior = Mn1lsPrior(0.005, 2.0 / math.sqrt(0.005))  # rho^2 = 4
        got = mn1ls_profile(2.0, prior, 1.0)
        want = mc_tau_alpha_oracle(2.0, prior, 1.0, seed=123)
        assert abs(got - want) / want < 0.01

    def test_approaches_signal_energy_limit(self):
        prior = Mn1lsPrior(0.9, 100.0)
        got = mn1ls_profile(1e4, prior, 1.0)
        want = 1.0 + prior.signal_energy
        assert abs(got - want) / want < 0.01

    def test_multiple_descent_shape(self):
        # sparse prior: risk descends from the interpolation peak into a
        # valley below the null risk, then climbs back toward sigma^2 + eps M^2
        prior = Mn1lsPrior(0.01, 20.0)
        vals = [mn1ls_profile(phi, prior, 1.0) for phi in (1.5, 2.0, 4.0, 16.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 5.0  # the sparse-recovery valley
        tail = mn1ls_profile(1e4, prior, 1.0)
        assert abs(tail - 5.0) / 5.0 < 0.01


class TestOneStepProfile:
    ENERGY = ModelEnergy(4.0, 1.0)

    def test_no_adjustment_returns_base(self):
        assert onestep_profile(2.0, INF, 3.7, self.ENERGY) == 3.7

    def test_isotropic_closed_form_identity(self):
        # R (1 - 1/phi2) + sigma^2 (1/phi2 + 1/(phi2 - 1))
        for phi2 in (1.5, 2.0, 6.0):
            R = 3.0
            got = onestep_profile(2.0, phi2, R, self.ENERGY)
            want = R * (1 - 1 / phi2) + 1.0 * (1 / phi2 + 1 / (phi2 - 1))
            assert abs(got - want) < 1e-10

    def test_interpolation_threshold_diverges(self):
        assert onestep_profile(2.0, 1.0, 3.0, self.ENERGY) == INF

    def test_underparam_branch(self):
        assert onestep_profile(2.0, 0.5, 3.0, self.ENERGY) == 2.0

    def test_matches_iterated_formula(self):
        # two independent code paths must agree in the isotropic case
        for phi1 in (1.3, 2.0, 8.0):
            base = mn2ls_profile(phi1, self.ENERGY)
            for phi2 in (1.2, 3.0, 50.0, INF):
                general = onestep_profile(phi1, phi2, base, self.ENERGY)
                iterated = onestep_profile_iterated(phi1, phi2, 4.0, 1.0)
                assert abs(general - iterated) < 1e-10


def excess(z, s):
    """Excess ridgeless risk at aspect ratio z for signal-to-noise s, by branch."""
    if math.isinf(z):
        return s
    if z == 1.0:
        return INF
    if z < 1.0:
        return z / (1.0 - z)
    return s * (1 - 1 / z) + 1 / (z - 1)


def grid_min_onestep_excess(gamma, snr, points=900):
    """2-d constrained grid minimization oracle for the optimized one-step
    excess risk, using the iterated-profile branches directly."""
    zs = list(np.exp(np.linspace(math.log(gamma), math.log(1e5), points))) + [INF]
    best = INF
    for z1 in zs:
        inv_budget = 1.0 / gamma - (0.0 if math.isinf(z1) else 1.0 / z1)
        if inv_budget < -1e-12:
            continue
        first = excess(z1, snr)
        for z2 in zs:
            if (0.0 if math.isinf(z2) else 1.0 / z2) > inv_budget + 1e-12:
                continue
            if z2 <= 1.0 and not math.isinf(z2):
                val = excess(z2, 0.0) if z2 < 1.0 else INF
            elif math.isinf(first) and not math.isinf(z2):
                continue
            else:
                val = excess(z2, first)
            best = min(best, val)
    return best


class TestOptimizeOnestep:
    def test_snr_star_constant(self):
        assert abs(snr_star() - 10.7041) < 1e-3

    def test_low_snr_cases(self):
        assert optimize_onestep_iso(0.25, 1.0).risk == pytest.approx(1 / 3, abs=1e-12)
        assert optimize_onestep_iso(3.0, 1.0).risk == 1.0

    def test_flat_branch_value(self):
        # SNR = 4, small gamma in the flat region: 2 sqrt(2 sqrt(4) - 1) - 1
        got = optimize_onestep_iso(1.05, 4.0)
        assert got.risk == pytest.approx(2 * math.sqrt(3) - 1, abs=1e-12)

    def test_matches_grid_oracle(self):
        cases = ((0.25, 1.0), (0.7, 2.0), (1.2, 4.0), (2.0, 4.0), (3.0, 20.0), (1.14, 74.6))
        for gamma, snr in cases:
            opt = optimize_onestep_iso(gamma, snr).risk
            grid = grid_min_onestep_excess(gamma, snr)
            assert opt <= grid + 1e-9
            assert grid - opt <= 0.02 * (1.0 + opt)

    def test_never_worse_than_monotonized_zero_step(self):
        for snr in (0.5, 1.0, 4.0, 8.0, 30.0):
            energy = ModelEnergy(snr, 1.0)
            profile = lambda z: mn2ls_profile_isotropic(z, snr, 1.0)
            for gamma in (0.2, 0.6, 1.1, 2.0, 10.0):
                one = optimize_onestep_iso(gamma, snr).risk + 1.0
                zero = monotonize_profile(gamma, profile)
                assert one <= zero + 1e-8

    def test_allocation_respects_budget(self):
        cases = ((0.3, 2.0, "underparam"), (3.0, 1.0, "corner"), (1.05, 4.0, "flat"),
                 (1.5, 4.0, "budget"), (5.0, 15.0, "budget"), (0.986, 413.0, "budget"))
        for gamma, snr, branch in cases:
            opt = optimize_onestep_iso(gamma, snr)
            assert opt.branch == branch
            z1 = 0.0 if math.isinf(opt.zeta1) else 1.0 / opt.zeta1
            z2 = 0.0 if math.isinf(opt.zeta2) else 1.0 / opt.zeta2
            assert z1 + z2 <= 1.0 / gamma + 1e-10
            # the allocation attains the risk: pilot at zeta1, adjustment at zeta2
            assert opt.risk == pytest.approx(excess(opt.zeta2, excess(opt.zeta1, snr)), rel=1e-15)

    def test_gamma_star_is_branch_crossover(self):
        snr = 20.0
        gs = gamma_star(snr)
        assert 0.0 < gs < 1.0
        below = optimize_onestep_iso(gs * 0.98, snr)
        above = optimize_onestep_iso(min(0.999, gs * 1.02), snr)
        assert below.branch == "underparam"
        assert above.branch != "underparam"


class TestReferenceProfiles:
    GAMMAS = (0.3, 1.0, 1.7, 12.0, INF)

    def test_base_kinds_are_their_own_reference(self):
        energy, prior = ModelEnergy(4.0, 0.5), Mn1lsPrior(0.1, 3.0)
        base, ref = reference_profiles("mn2ls", 0.5, 4.0)
        assert base is ref
        assert [base(g) for g in self.GAMMAS] == [mn2ls_profile(g, energy) for g in self.GAMMAS]
        base, ref = reference_profiles("mn1ls", 0.5, None, prior)
        assert base is ref
        assert [base(g) for g in (0.5, 2.0)] == [mn1ls_profile(g, prior, 0.5) for g in (0.5, 2.0)]

    def test_onestep_reference_is_the_optimum_as_a_risk(self):
        base, ref = reference_profiles("onestep", 0.5, 4.0)
        assert base(1.7) == mn2ls_profile(1.7, ModelEnergy(4.0, 0.5))
        for g in self.GAMMAS[:-1]:
            assert ref(g) == (optimize_onestep_iso(g, 8.0).risk + 1.0) * 0.5

    def test_unknown_kind_and_bad_energy_rejected(self):
        with pytest.raises(ValueError, match="unknown profile kind"):
            reference_profiles("ridge", 1.0, 4.0)
        with pytest.raises(ValueError, match="noise energy"):
            reference_profiles("onestep", 0.0, 4.0)


class TestMonotonizeProfile:
    def test_increasing_profile_returns_left_endpoint(self):
        assert monotonize_profile(2.0, lambda z: z if not math.isinf(z) else INF) == 2.0

    def test_constant_profile(self):
        assert monotonize_profile(0.7, lambda z: 3.25) == 3.25

    def test_bypasses_interpolation_peak(self):
        profile = lambda z: mn2ls_profile_isotropic(z, 4.0, 1.0)
        val = monotonize_profile(1.0, profile)
        assert val < 5.0 and val < profile(1.05)
        assert val == pytest.approx(4.0, abs=1e-6)

    def test_skips_infinite_values(self):
        profile = lambda z: INF if z < 5 else 1.0 + 1.0 / z if not math.isinf(z) else 1.0
        assert monotonize_profile(0.5, profile) == pytest.approx(1.0, abs=1e-9)

    @settings(deadline=None, max_examples=20)
    @given(snr=st.floats(0.25, 20.0))
    def test_nondecreasing_in_gamma(self, snr):
        profile = lambda z: mn2ls_profile_isotropic(z, snr, 1.0)
        gammas = np.linspace(0.1, 6.0, 25)
        vals = [monotonize_profile(g, profile) for g in gammas]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


class TestMonotonizeCurve:
    """The shared-scan curve against the per-gamma scan oracle, gamma by gamma."""

    GAMMAS = tuple(np.exp(np.linspace(math.log(0.1), math.log(10.0), 15)))

    @staticmethod
    def assert_matches_oracle(gammas, profile):
        got = monotonize_curve(gammas, profile)
        assert len(got) == len(gammas)
        for g, value in zip(gammas, got):
            want = scan_monotonized_profile(g, profile)
            assert value == pytest.approx(want, rel=1e-12, abs=0.0), g

    @pytest.mark.parametrize("rho2", [1.0, 4.0])
    def test_mn2ls(self, rho2):
        energy = ModelEnergy(rho2, 1.0)
        self.assert_matches_oracle(self.GAMMAS, lambda z: mn2ls_profile(z, energy))

    def test_mn1ls(self):
        prior = Mn1lsPrior(0.01, 20.0)
        self.assert_matches_oracle(
            (0.5, 1.5, 3.0, 8.0), lambda z: mn1ls_profile(z, prior, 1.0)
        )

    def test_minimum_at_the_boundary(self):
        # increasing on [gamma, inf) with a larger null limit: the minimum is
        # the left end gamma < 1 itself
        profile = lambda z: 10.0 if math.isinf(z) else 1.0 + z
        gammas = (0.2, 0.5, 0.9)
        self.assert_matches_oracle(gammas, profile)
        assert monotonize_curve(gammas, profile) == [1.2, 1.5, 1.9]

    def test_unsorted_and_repeated_gammas(self):
        energy = ModelEnergy(4.0, 1.0)
        profile = lambda z: mn2ls_profile(z, energy)
        gammas = (3.0, 0.2, 1.5, 0.2, 7.0, 1.5, 0.6)
        self.assert_matches_oracle(gammas, profile)
        got = monotonize_curve(gammas, profile)
        assert got[1] == got[3] and got[2] == got[5]

    def test_all_infinite_profile_returns_value_at_infinity(self):
        profile = lambda z: 2.5 if math.isinf(z) else INF
        self.assert_matches_oracle((0.3, 4.0), profile)
        assert monotonize_curve((0.3, 4.0), profile) == [2.5, 2.5]

    def test_single_gamma_is_monotonize_profile(self):
        energy = ModelEnergy(4.0, 1.0)
        profile = lambda z: mn2ls_profile(z, energy)
        self.assert_matches_oracle((0.631,), profile)
        assert monotonize_curve([0.631], profile) == [monotonize_profile(0.631, profile)]

    def test_empty_and_invalid(self):
        assert monotonize_curve([], lambda z: 1.0) == []
        for bad in ((0.5, 0.0), (-1.0,), (math.nan,)):
            with pytest.raises(ValueError):
                monotonize_curve(bad, lambda z: 1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_gammas_named(self, bad):
        # rejected up front, before the scan grid would turn them into NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                monotonize_curve([2.0, bad], lambda z: 1.0)


class TestGridMonotonizedProfile:
    @settings(deadline=None, max_examples=20)
    @given(
        snr=st.floats(0.25, 20.0),
        p=st.integers(2, 20000),
        n=st.integers(50, 2000),
        te_frac=st.floats(0.02, 0.3),
        block_frac=st.floats(0.005, 0.1),
    )
    def test_never_below_monotonized_profile(self, snr, p, n, te_frac, block_frac):
        # gamma = p / n exactly, so every candidate ratio p / n_xi exceeds it
        gamma = p / n
        n_te = max(1, int(te_frac * n))
        block = max(1, int(block_frac * n))
        profile = lambda z: mn2ls_profile_isotropic(z, snr, 1.0)
        grid = grid_monotonized_profile(gamma, n, n_te, block, profile)
        mono = monotonize_profile(gamma, profile)
        assert grid >= mono * (1.0 - 1e-9)

    def test_singular_candidate_is_skipped(self):
        # p = 340 = n_1 for n = 400, n_te = 40, block = 20: that candidate's
        # ridgeless risk is +inf and another candidate carries the minimum
        profile = lambda z: mn2ls_profile(z, ModelEnergy(4.0, 1.0))
        assert profile(340 / 340) == INF
        value = grid_monotonized_profile(0.85, 400, 40, 20, profile)
        assert math.isfinite(value) and value <= profile(INF)

    def test_approaches_monotonized_profile(self):
        # n_te/n = block/n = frac -> 0: the largest candidate's aspect ratio
        # gamma n / (n - n_te - block) tends to gamma and the grid fills in
        for snr in (1.0, 4.0):
            profile = lambda z: mn2ls_profile(z, ModelEnergy(snr, 1.0))
            for gamma in (0.1, 0.631, 1.585, 10.0):
                mono = monotonize_profile(gamma, profile)
                gaps = []
                for n, frac in ((400, 0.1), (4000, 0.02), (40000, 0.004), (200000, 0.001)):
                    k = round(frac * n)
                    gaps.append(grid_monotonized_profile(gamma, n, k, k, profile) / mono - 1.0)
                assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:])), gaps
                assert 0.0 <= gaps[-1] < 0.01, gaps


# ---------------------------------------------------------------------------
# the in-house Brent root finder against scipy.optimize.brentq, its oracle


# bound at import: the oracle fixture below patches profiles.brentq
port_brentq = profiles.brentq


def float_bits(x) -> bytes:
    # distinguishes -0.0 from 0.0 and every NaN payload
    assert isinstance(x, float)
    return struct.pack("<d", x)


def scipy_root(f, a, b, xtol):
    return scipy_brentq(f, a, b, xtol=xtol, rtol=profiles._RTOL)


def same_as_scipy(f, a, b, xtol):
    """Run the port and scipy on f and assert that they evaluate f at the
    same points, bit for bit and in order, and end alike.  Returns the
    outcome: the root's bits, or the type of the exception raised."""
    runs = []
    for solver in (port_brentq, scipy_root):
        points = []

        def g(x):
            points.append(float_bits(x))
            return f(x)

        try:
            outcome = float_bits(solver(g, a, b, xtol))
        except (ValueError, RuntimeError) as exc:
            outcome = type(exc)
        runs.append((outcome, points))
    assert runs[0] == runs[1], (a, b, xtol)
    return runs[0][0]


def branch_lines():
    """Line numbers of the step choices in profiles.brentq, by their text."""
    lines, start = inspect.getsourcelines(port_brentq)
    marks = {
        "secant": "stry = -fcur * (xcur - xpre)",
        "extrapolation": "stry = -fcur * (fblk * dblk",
        "accepted": "spre, scur = scur, stry",
        "bisection": "spre = scur = sbis",
        "zero_division": "stry = INF",
    }
    found = {name: {start + i for i, line in enumerate(lines) if text in line} for name, text in marks.items()}
    assert all(found.values()), found
    return found


def branches_taken(f, a, b, xtol):
    code, hit = port_brentq.__code__, set()

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            hit.add(frame.f_lineno)
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        port_brentq(f, a, b, xtol)
    finally:
        sys.settrace(previous)
    return {name for name, lines in branch_lines().items() if lines & hit}


@pytest.fixture
def brent_oracle(monkeypatch):
    """Route every root the profile engine finds through both solvers; each
    call must agree bit for bit, root and evaluation points.  Returns the
    count of calls per root-finding site (the qualified name of f)."""
    calls = collections.Counter()

    def checked(f, a, b, xtol):
        root = same_as_scipy(f, a, b, xtol)
        assert isinstance(root, bytes), (f.__qualname__, a, b, root)
        calls[f.__qualname__] += 1
        return struct.unpack("<d", root)[0]

    monkeypatch.setattr(profiles, "brentq", checked)
    return calls


class TestBrentPort:
    SITES = {
        "solve_v.<locals>.g",
        "_solve_alpha.<locals>.f",
        "mn1ls_profile.<locals>.outer",
        "snr_star.<locals>.f",
        "gamma_star.<locals>.f",
    }

    def test_every_call_site_over_wide_grids(self, brent_oracle):
        spectra = (SpectralInputs.point_mass(1.0), SpectralInputs(((0.5, 0.5), (2.0, 0.5))),
                   SpectralInputs(((0.1, 0.2), (1.0, 0.3), (9.0, 0.5))))
        for H in spectra:
            for phi in np.exp(np.linspace(math.log(1.0 + 1e-6), math.log(1e6), 200)):
                mn2ls_profile(float(phi), ModelEnergy(4.0, 1.0), H)
        for eps, mag, sigma2 in ((0.1, 3.0, 1.0), (0.5, 1.0, 0.25), (0.02, 20.0, 4.0)):
            for phi in np.exp(np.linspace(math.log(1.01), math.log(1e3), 60)):
                mn1ls_profile(float(phi), Mn1lsPrior(eps, mag), sigma2)
        for snr in (1.5, 4.0, 10.0, 11.0, 25.0, 200.0):
            for gamma in np.exp(np.linspace(math.log(0.05), math.log(50.0), 24)):
                optimize_onestep_iso(float(gamma), snr)
        snr_star.__wrapped__()
        for snr in (12.0, 40.0):
            gamma_star(snr)
        assert set(brent_oracle) == self.SITES
        assert sum(brent_oracle.values()) > 2000

    # (function, bracket, branches it takes at xtol = 1e-12)
    SYNTHETIC = [
        (lambda x: 3.0 * x - 1.0, (-2.0, 5.0), {"secant", "accepted"}),
        (lambda x: math.exp(x) - 2.0, (0.1, 3.0), {"extrapolation", "accepted"}),
        (lambda x: x * x - 2.0, (0.0, 2.0), {"extrapolation", "bisection"}),
        (lambda x: (x - 0.3) ** 3 + 0.01 * (x - 0.3), (-1.0, 2.0), {"extrapolation", "bisection"}),
        (lambda x: 1.0 if x > 0.3 else -1.0, (0.0, 1.0), {"bisection"}),
        (lambda x: math.atan(1e3 * (x - 0.7)), (0.0, 1.0), {"secant"}),
        # subnormal values: steps divide by a difference that rounds to 0
        (lambda x: 1e-310 * math.atan(x - 0.7), (-2.0, 2.5), {"zero_division", "bisection"}),
        (lambda x: 5e-324 if x > 0.3 else -5e-324, (-1.0, 2.0), {"bisection"}),
    ]

    @pytest.mark.parametrize("case", range(len(SYNTHETIC)))
    @pytest.mark.parametrize("xtol", [1e-24, 1e-12, 1e-3])
    def test_synthetic_functions_take_every_branch(self, case, xtol):
        f, (a, b), branches = self.SYNTHETIC[case]
        assert isinstance(same_as_scipy(f, a, b, xtol), bytes)
        if xtol == 1e-12:
            assert branches <= branches_taken(f, a, b, xtol)

    def test_random_brackets(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            r, c = rng.uniform(-1.0, 1.0, 2)
            f = lambda x: (x - r) * (1.0 + c * x * x) + 1e-3 * math.sin(40.0 * x)
            a, b = r - rng.uniform(1e-9, 3.0), r + rng.uniform(1e-9, 3.0)
            same_as_scipy(f, float(a), float(b), 1e-15)

    @pytest.mark.parametrize("at", ["a", "b"])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("end", [0.0, -0.0, 0.25])
    def test_root_at_an_endpoint(self, at, zero, end):
        a, b = (end, 1.0) if at == "a" else (-1.0, end)
        f = lambda x: zero if x == end else x - end
        assert same_as_scipy(f, a, b, 1e-12) == float_bits(end)

    @pytest.mark.parametrize(
        "f, a, b, error",
        [
            (lambda x: x * x + 1.0, -1.0, 2.0, ValueError),  # same signs
            (lambda x: 1e-200, 0.0, 1.0, ValueError),  # same signs, product underflows
            (lambda x: math.nan, 0.0, 1.0, ValueError),  # NaN at a
            (lambda x: math.nan if x == 1.0 else -1.0, 0.0, 1.0, ValueError),  # NaN at b
            (lambda x: math.nan if x == 1.0 else 0.0, 0.0, 1.0, ValueError),  # root at a, NaN at b
            (lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, 0.0, 1.0, ValueError),
            (lambda x: (x - 0.3) ** 3, -1.0, 2.0, RuntimeError),  # a triple root: 100 iterations
        ],
    )
    def test_error_parity(self, f, a, b, error):
        assert same_as_scipy(f, a, b, 1e-15) is error
