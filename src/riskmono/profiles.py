# Deterministic asymptotic risk profiles.
#
# Random-matrix fixed points for ridgeless least squares, the soft-threshold
# (tau, alpha) system for the lassoless profile, the one-step split profile,
# the optimized one-step risk under isotropic features, the choice of the
# reference profile a run is compared with, and the monotonized profile map
# min_{zeta >= gamma} R(zeta).

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import SolverError

INF = math.inf

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _norm_sf(x: float) -> float:
    return 0.5 * math.erfc(x / _SQRT2)


def _norm_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


# Brent root finding on a sign-change bracket, to the smallest relative
# tolerance scipy.optimize.brentq accepts and within its default iteration
# count; the absolute tolerance is set per call from the scale of the root.
_RTOL = 4.0 * float(np.finfo(np.float64).eps)
_MAXITER = 100


def brentq(f, a: float, b: float, xtol: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's
    method (Brent 1973, "Algorithms for Minimization without Derivatives",
    ch. 4).  A line-by-line port of the C loop behind scipy.optimize.brentq
    at rtol = _RTOL: the same steps, stopping rule and float operations in
    the same order, so the same root bit for bit.  Stops when f = 0 or the
    bracket half-width is below (xtol + _RTOL |x|) / 2.  Raises ValueError
    when f(a) and f(b) have the same sign or f is NaN, and RuntimeError after
    _MAXITER iterations."""
    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), _RTOL
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _root_value(f, xpre), _root_value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # values are never NaN, so for nonzero ones < 0 is C's signbit
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError(f"f({a}) and f({b}) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep xcur the best point so far
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic extrapolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets an inf or NaN step, which bisects
                stry = INF
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _root_value(f, xcur)
    raise RuntimeError(f"Brent's method did not converge in {_MAXITER} iterations; last x = {xcur}")


def _root_value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"the function value at x={x} is NaN; the root finder cannot continue")
    return fx


@dataclass(frozen=True)
class SpectralInputs:
    """A discrete distribution on (0, inf) given as (atom, weight) pairs.

    Used for the covariance spectrum H, the signal-projection spectrum G, and
    the one-step weighting distribution Q.  Integrals are exact weighted sums.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((float(r), float(w)) for r, w in self.atoms)
        if not atoms:
            raise ValueError("need at least one atom")
        if any(r <= 0.0 for r, _ in atoms):
            raise ValueError("atoms must be strictly positive")
        if any(w < 0.0 for _, w in atoms):
            raise ValueError("weights must be nonnegative")
        total = sum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {total}")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def point_mass(cls, r: float = 1.0) -> "SpectralInputs":
        return cls(((r, 1.0),))

    def integrate(self, f) -> float:
        return sum(w * f(r) for r, w in self.atoms)

    def mean(self) -> float:
        return self.integrate(lambda r: r)


ISOTROPIC = SpectralInputs.point_mass(1.0)


@dataclass(frozen=True)
class ModelEnergy:
    rho2: float
    sigma2: float

    def __post_init__(self):
        if self.rho2 < 0.0:
            raise ValueError(f"signal energy must be >= 0, got {self.rho2}")
        if self.sigma2 <= 0.0:
            raise ValueError(f"noise energy must be > 0, got {self.sigma2}")

    @property
    def snr(self) -> float:
        return self.rho2 / self.sigma2


@dataclass(frozen=True)
class FixedPointState:
    """Companion fixed point v plus the derived quantities tv and tvg."""

    phi: float
    v: float
    tv: float
    tvg: float


@dataclass(frozen=True)
class Mn1lsPrior:
    """Two-atom prior for the scaled signal coordinates: magnitude w.p.
    epsilon, zero otherwise.  Signal energy is epsilon * magnitude^2."""

    epsilon: float
    magnitude: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.magnitude <= 0.0:
            raise ValueError(f"magnitude must be > 0, got {self.magnitude}")

    @property
    def signal_energy(self) -> float:
        return self.epsilon * self.magnitude**2


@dataclass(frozen=True)
class OneStepOptimum:
    """Optimal split aspect ratios and the resulting excess risk (risk/sigma^2 - 1)."""

    gamma: float
    zeta1: float
    zeta2: float
    risk: float
    branch: str = ""

    def __post_init__(self):
        budget = 1.0 / self.gamma + 1e-10
        z1 = 0.0 if math.isinf(self.zeta1) else 1.0 / self.zeta1
        z2 = 0.0 if math.isinf(self.zeta2) else 1.0 / self.zeta2
        if z1 + z2 > budget:
            raise ValueError(
                f"allocation 1/{self.zeta1} + 1/{self.zeta2} exceeds 1/{self.gamma}"
            )


# ---------------------------------------------------------------------------
# ridgeless fixed points and profile


def solve_v(phi: float, H: SpectralInputs = ISOTROPIC) -> FixedPointState:
    """Solve 1/phi = int v r / (1 + v r) dH(r) for v > 0 (phi > 1), then fill
    in tv and tvg from their defining formulas.

    The map is strictly increasing in v, so a geometrically grown bracket plus
    Brent's method is robust; the residual is checked to < 1e-12.
    """
    if not phi > 1.0:
        raise ValueError(f"fixed point v(0; phi) needs phi > 1, got {phi}")

    target = 1.0 / phi

    def g(v):
        return H.integrate(lambda r: v * r / (1.0 + v * r)) - target

    lo, hi = 1e-12, 1.0
    grow = 0
    while g(hi) < 0.0:
        hi *= 2.0
        grow += 1
        if grow > 200:
            raise SolverError(f"failed to bracket v(0; {phi}) below {hi}")
    v = brentq(g, lo, hi, xtol=1e-24)
    residual = abs(g(v))
    if residual > 1e-12:
        raise SolverError(f"fixed-point residual {residual:.2e} at phi={phi}")

    s2 = H.integrate(lambda r: r**2 / (1.0 + v * r) ** 2)
    tv = 1.0 / (1.0 / v**2 - phi * s2)
    tvg = tv * phi * s2
    return FixedPointState(phi, v, tv, tvg)


def mn2ls_profile(
    phi: float,
    energy: ModelEnergy,
    H: SpectralInputs = ISOTROPIC,
    G: SpectralInputs = ISOTROPIC,
) -> float:
    """Deterministic squared risk of ridgeless least squares at aspect ratio phi.

    Diverges at phi = 1 (returned as +inf) and tends to the null risk
    rho^2 int r dG + sigma^2 as phi -> inf.
    """
    if not phi > 0.0:
        raise ValueError(f"aspect ratio must be positive, got {phi}")
    if math.isinf(phi):
        return energy.rho2 * G.mean() + energy.sigma2
    if phi == 1.0:
        return INF
    if phi < 1.0:
        return energy.sigma2 / (1.0 - phi)
    fp = solve_v(phi, H)
    bias = (1.0 + fp.tvg) * G.integrate(lambda r: r / (1.0 + fp.v * r) ** 2)
    var = phi * fp.tv * H.integrate(lambda r: r**2 / (1.0 + fp.v * r) ** 2)
    return energy.rho2 * bias + energy.sigma2 * (var + 1.0)


# ---------------------------------------------------------------------------
# one-step profile


def onestep_profile(
    phi1: float,
    phi2: float,
    rdet_base_at_phi1: float,
    energy: ModelEnergy,
    H: SpectralInputs = ISOTROPIC,
    Q: SpectralInputs = ISOTROPIC,
) -> float:
    """Deterministic risk of the one-step ingredient at split ratios (phi1, phi2).

    `rdet_base_at_phi1` is the base procedure's deterministic risk at phi1 and
    Q is the caller-supplied weighting distribution of the base procedure's
    error in the covariance eigenbasis (point mass at 1 in the isotropic case).
    """
    if math.isinf(phi2):
        return rdet_base_at_phi1
    if not phi2 > 0.0:
        raise ValueError(f"adjustment aspect ratio must be positive, got {phi2}")
    if phi2 == 1.0:
        return INF
    if phi2 < 1.0:
        return energy.sigma2 / (1.0 - phi2)
    fp = solve_v(phi2, H)
    upsilon_b = (1.0 + fp.tvg) * Q.integrate(lambda r: 1.0 / (1.0 + fp.v * r) ** 2)
    return (
        rdet_base_at_phi1 * upsilon_b
        + energy.sigma2 * (1.0 - upsilon_b)
        + energy.sigma2 * fp.tvg
    )


# ---------------------------------------------------------------------------
# lassoless (tau, alpha) system


def _threshold_mse(theta: float, tau: float, alpha: float) -> float:
    """E[(eta(theta + tau Z; alpha tau) - theta)^2] for Z ~ N(0,1), in closed
    form from truncated-normal moments."""
    b = alpha * tau
    up = alpha - theta / tau
    um = alpha + theta / tau
    total = 0.0
    for u in (up, um):
        sf, pdf = _norm_sf(u), _norm_pdf(u)
        total += (tau * tau + b * b) * sf + (tau * tau * u - 2.0 * tau * b) * pdf
    total += theta * theta * (1.0 - _norm_sf(up) - _norm_sf(um))
    return total


def _exceed_prob(theta: float, tau: float, alpha: float) -> float:
    """P(|theta + tau Z| > alpha tau)."""
    return _norm_sf(alpha - theta / tau) + _norm_sf(alpha + theta / tau)


def _solve_alpha(tau: float, prior: Mn1lsPrior, target: float) -> float:
    """Inner equation: find alpha with P(|Theta + tau Z| > alpha tau) = target.
    The probability is strictly decreasing in alpha."""
    eps, M = prior.epsilon, prior.magnitude

    def f(alpha):
        return (
            eps * _exceed_prob(M, tau, alpha)
            + (1.0 - eps) * _exceed_prob(0.0, tau, alpha)
            - target
        )

    hi = 1.0
    grow = 0
    while f(hi) > 0.0:
        hi *= 2.0
        grow += 1
        if grow > 200:
            raise SolverError(f"failed to bracket alpha at tau={tau}")
    return brentq(f, 0.0, hi, xtol=1e-15)


def mn1ls_profile(phi: float, prior: Mn1lsPrior, sigma2: float) -> float:
    """Deterministic squared risk of lassoless least squares at aspect ratio phi.

    Overparameterized branch: tau*^2 where (tau*, alpha*) solves the coupled
    soft-threshold system; the expectations are exact normal-CDF expressions.
    """
    if sigma2 <= 0.0:
        raise ValueError(f"noise energy must be > 0, got {sigma2}")
    if not phi > 0.0:
        raise ValueError(f"aspect ratio must be positive, got {phi}")
    if math.isinf(phi):
        return sigma2 + prior.signal_energy
    if phi == 1.0:
        return INF
    if phi < 1.0:
        return sigma2 / (1.0 - phi)

    target = 1.0 / phi
    eps, M = prior.epsilon, prior.magnitude

    def outer(tau):
        alpha = _solve_alpha(tau, prior, target)
        mse = eps * _threshold_mse(M, tau, alpha) + (1.0 - eps) * _threshold_mse(
            0.0, tau, alpha
        )
        return sigma2 + mse - tau * tau

    lo = math.sqrt(sigma2) * 1e-6
    hi = math.sqrt(sigma2)
    grow = 0
    while outer(hi) > 0.0:
        hi *= 2.0
        grow += 1
        if grow > 120:
            raise SolverError(
                f"failed to bracket tau at phi={phi}: residual {outer(hi):.3e} at tau={hi:.3e}"
            )
    tau = brentq(outer, lo, hi, xtol=1e-15 * math.sqrt(sigma2))
    res_outer = outer(tau)
    alpha = _solve_alpha(tau, prior, target)
    res_inner = (
        eps * _exceed_prob(M, tau, alpha)
        + (1.0 - eps) * _exceed_prob(0.0, tau, alpha)
        - target
    )
    if abs(res_outer) > 1e-8 * max(1.0, tau * tau) or abs(res_inner) > 1e-10:
        raise SolverError(
            f"(tau, alpha) system not converged at phi={phi}: "
            f"residuals ({res_outer:.3e}, {res_inner:.3e})"
        )
    return tau * tau


# ---------------------------------------------------------------------------
# optimized one-step risk under isotropic features


def _h(z: float, s: float) -> float:
    """Excess ridgeless risk s(1 - 1/z) + 1/(z - 1) on (1, inf]; h(inf) = s."""
    if math.isinf(z):
        return s
    return s * (1.0 - 1.0 / z) + 1.0 / (z - 1.0)


@lru_cache(maxsize=1)
def snr_star() -> float:
    """Signal-to-noise level at which the flat branch of the optimized
    one-step risk disappears; approximately 10.7041."""

    def f(x):
        rs = math.sqrt(x)
        q = math.sqrt(2.0 * rs - 1.0)
        return 1.0 - 1.0 / (2.0 * q) - 1.0 / (2.0 - 1.0 / rs - 1.0 / q)

    return brentq(f, 1.0 + 1e-9, 100.0, xtol=1e-14)


def _lagrange_candidates(gamma: float, s: float):
    """Roots of the stationarity equation for the constrained split problem,
    substituting 1/zeta2 = 1/gamma - 1/zeta1.  Multiple roots can occur near
    case boundaries, so every bracketed root is returned for evaluation."""

    def zeta2_of(z1):
        return 1.0 / (1.0 / gamma - 1.0 / z1)

    def F(z1):
        z2 = zeta2_of(z1)
        lhs = s * (1.0 / z1 - 1.0 / z2)
        rhs = (
            z1**2 / (z1 - 1.0) ** 2
            - z2**2 / (z2 - 1.0) ** 2
            + (1.0 / (z1 - 1.0)) * (1.0 - (z1 / z2) * (z1 / (z1 - 1.0)))
        )
        return lhs - rhs

    lo = max(gamma, 1.0) * (1.0 + 1e-9)
    if gamma < 1.0:
        hi = gamma / (1.0 - gamma) * (1.0 - 1e-9)  # keeps zeta2 > 1
    else:
        hi = max(1e7, 1e3 * gamma)
    if hi <= lo:
        return []
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), 4000))
    with np.errstate(divide="ignore"):  # zeta2 rounds to 1 at hi as gamma -> 1
        vals = [F(z) for z in grid]
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
        elif (vals[i] > 0.0) != (vals[i + 1] > 0.0) and math.isfinite(vals[i + 1]):
            # a sign change into +-inf is the zeta2 = 1 pole, not a root
            roots.append(brentq(F, grid[i], grid[i + 1], xtol=1e-15))
    return [(z1, zeta2_of(z1)) for z1 in roots]


def _overparam_optimum(gamma: float, s: float):
    """Minimize h(z2; h(z1; s)) over z1, z2 > 1 with 1/z1 + 1/z2 <= 1/gamma."""
    if s <= 1.0:
        return s, INF, INF, "corner"
    rs = math.sqrt(s)
    q = math.sqrt(2.0 * rs - 1.0)
    z1_flat = rs / (rs - 1.0)
    z2_flat = q / (q - 1.0)
    if 1.0 / z1_flat + 1.0 / z2_flat <= 1.0 / gamma:
        return 2.0 * q - 1.0, z1_flat, z2_flat, "flat"
    candidates = [
        (_h(z2, _h(z1, s)), z1, z2) for z1, z2 in _lagrange_candidates(gamma, s)
    ]
    if gamma > 1.0:
        # constraint-boundary corners z1 -> gamma (z2 -> inf) and z1 -> inf
        # (z2 -> gamma) both give the unadjusted base value h(gamma; s)
        candidates.append((_h(gamma, s), gamma, INF))
    if not candidates:
        raise SolverError(f"no feasible overparameterized split at gamma={gamma}, snr={s}")
    val, z1, z2 = min(candidates, key=lambda t: t[0])
    return val, z1, z2, "lagrange"


def optimize_onestep_iso(gamma: float, snr: float) -> OneStepOptimum:
    """Optimized one-step excess risk (risk/sigma^2 - 1) with a ridgeless base
    under isotropic features, minimizing over split ratios 1/z1 + 1/z2 <= 1/gamma.

    Returns the minimizing allocation; the underparameterized corner
    (z1 = gamma < 1, no adjustment) competes against the overparameterized
    branch, whose interior optimum is found from the stationarity system.
    """
    if not gamma > 0.0:
        raise ValueError(f"aspect ratio must be positive, got {gamma}")
    if snr < 0.0:
        raise ValueError(f"snr must be >= 0, got {snr}")
    over_val, z1, z2, branch = _overparam_optimum(gamma, snr)
    if gamma < 1.0:
        under_val = gamma / (1.0 - gamma)
        if under_val <= over_val:
            return OneStepOptimum(gamma, gamma, INF, under_val, "underparam")
    return OneStepOptimum(gamma, z1, z2, over_val, branch)


def reference_profiles(kind: str, sigma2: float, rho2: float | None, prior: Mn1lsPrior | None = None):
    """(base profile, reference profile) for a profile kind.  "mn2ls" (the
    ridgeless base at signal energy rho2) and "mn1ls" (the lassoless base
    under `prior`) are their own reference; "onestep" pairs the ridgeless
    base with the optimized one-step risk under isotropic features."""
    if kind == "mn1ls":
        base = lambda z: mn1ls_profile(z, prior, sigma2)
        return base, base
    energy = ModelEnergy(rho2, sigma2)
    base = lambda z: mn2ls_profile(z, energy)
    if kind == "mn2ls":
        return base, base
    if kind != "onestep":
        raise ValueError(f"unknown profile kind {kind!r}")
    snr = energy.snr
    # optimize_onestep_iso gives the excess risk risk/sigma^2 - 1
    return base, lambda z: (optimize_onestep_iso(z, snr).risk + 1.0) * sigma2


# ---------------------------------------------------------------------------
# profile monotonization


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SCAN_POINTS = 400


def _golden_min(profile, lo: float, hi: float) -> float:
    """Golden-section search for min profile(zeta) on [lo, hi] in log zeta, to
    relative tolerance 1e-6; returns the smaller finite value of the last two
    probes, or +inf."""
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
    return min((v for v in (f1, f2) if math.isfinite(v)), default=INF)


def monotonize_curve(gammas, profile) -> list[float]:
    """min over zeta in [gamma, inf] of profile(zeta), for every gamma in `gammas`.

    One log-spaced scan of SCAN_POINTS points from min(gammas) to
    max(1e6, 10 max(gammas)), with the gammas inserted, plus one explicit
    zeta = inf evaluation (the null-risk limit).  Each gamma takes the argmin
    of the scan at or above it (a suffix minimum, ties to the smallest zeta),
    refined by golden-section search between that point's scan neighbours;
    gammas that share a bracket share its refinement.  +inf profile values are
    skipped.  Results follow the input order; the gammas may be unsorted and
    repeated.
    """
    gammas = [float(g) for g in gammas]
    if not all(g > 0.0 for g in gammas):
        raise ValueError(f"aspect ratios must be positive, got {gammas}")
    if not gammas:
        return []
    upper = max(1e6, 10.0 * max(gammas))
    scan = np.exp(np.linspace(math.log(min(gammas)), math.log(upper), SCAN_POINTS))
    scan[0] = min(gammas)
    zs = np.unique(np.concatenate([scan, gammas]))
    vals = [v if math.isfinite(v) else INF for v in map(profile, zs)]
    at_inf = profile(INF)

    # argmin[k]: index of the smallest value among zs[k:]
    argmin = [0] * len(zs)
    best = len(zs) - 1
    for k in range(len(zs) - 1, -1, -1):
        if vals[k] <= vals[best]:
            best = k
        argmin[k] = best

    refined: dict[tuple[int, int], float] = {}
    out = []
    for g in gammas:
        k = int(np.searchsorted(zs, g))
        i = argmin[k]
        if math.isinf(vals[i]):
            out.append(at_inf)
            continue
        bracket = (max(i - 1, k), min(i + 1, len(zs) - 1))
        if bracket not in refined:
            refined[bracket] = _golden_min(profile, zs[bracket[0]], zs[bracket[1]])
        out.append(min(vals[i], refined[bracket], at_inf))
    return out


def monotonize_profile(gamma: float, profile) -> float:
    """min over zeta in [gamma, inf] of profile(zeta); see monotonize_curve."""
    return monotonize_curve([gamma], profile)[0]
