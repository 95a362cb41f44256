# Synthetic data generators for the isotropic linear-model experiments:
# dense Gaussian signals and sparse Bernoulli-spike signals.

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Dataset, child_seed, rng_from
from .profiles import Mn1lsPrior


@dataclass(frozen=True)
class DataModel:
    """Isotropic linear model Y = X'beta0 + eps with X ~ N(0, I_p).

    kind "dense": beta0 ~ N(0, rho2/p I), so E||beta0||^2 = rho2.
    kind "sparse": coordinates are magnitude/sqrt(p*epsilon) w.p. epsilon and
    zero otherwise, so E||beta0||^2 = magnitude^2.
    """

    kind: str
    p: int
    sigma2: float
    rho2: float | None = None
    epsilon: float | None = None
    magnitude: float | None = None

    def __post_init__(self):
        if self.kind not in ("dense", "sparse"):
            raise ValueError(f"unknown data model kind {self.kind!r}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.sigma2 <= 0.0:
            raise ValueError(f"sigma2 must be > 0, got {self.sigma2}")
        if self.kind == "dense":
            if self.rho2 is None or self.rho2 < 0.0:
                raise ValueError("dense model needs rho2 >= 0")
        else:
            if self.epsilon is None or not 0.0 < self.epsilon < 1.0:
                raise ValueError("sparse model needs epsilon in (0, 1)")
            if self.magnitude is None or self.magnitude <= 0.0:
                raise ValueError("sparse model needs magnitude > 0")

    @classmethod
    def dense(cls, p: int, rho2: float, sigma2: float) -> "DataModel":
        return cls("dense", p, sigma2, rho2=rho2)

    @classmethod
    def sparse(cls, p: int, epsilon: float, magnitude: float, sigma2: float) -> "DataModel":
        return cls("sparse", p, sigma2, epsilon=epsilon, magnitude=magnitude)

    @property
    def signal_energy(self) -> float:
        return self.rho2 if self.kind == "dense" else self.magnitude**2

    @property
    def snr(self) -> float:
        return self.signal_energy / self.sigma2

    def with_p(self, p: int) -> "DataModel":
        return replace(self, p=p)

    def mn1ls_prior(self) -> Mn1lsPrior:
        """Scaled-coordinate prior matching the sparse generator."""
        if self.kind != "sparse":
            raise ValueError("mn1ls prior is defined for the sparse model")
        return Mn1lsPrior(self.epsilon, self.magnitude / math.sqrt(self.epsilon))

    def draw_beta(self, seed: int) -> np.ndarray:
        rng = rng_from(seed)
        if self.kind == "dense":
            return rng.normal(0.0, math.sqrt(self.rho2 / self.p), size=self.p)
        spikes = rng.random(self.p) < self.epsilon
        return np.where(spikes, self.magnitude / math.sqrt(self.p * self.epsilon), 0.0)


@dataclass(frozen=True, eq=False)  # array fields: == is identity, not elementwise
class ConditionalSampler:
    """Law of (X0, Y0) conditional on a fixed signal vector; feeds the
    Monte-Carlo risk oracle."""

    model: DataModel
    beta0: np.ndarray

    def draw(self, n: int, seed: int) -> Dataset:
        rng = rng_from(seed)
        X = rng.standard_normal((n, self.model.p))
        eps = rng.normal(0.0, math.sqrt(self.model.sigma2), size=n)
        return Dataset(X, X @ self.beta0 + eps)


def generate(model: DataModel, n: int, seed: int):
    """Draw (Dataset, beta0) from the model; beta0 is returned so closed-form
    conditional risks can be evaluated."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    beta0 = model.draw_beta(child_seed(seed, "beta"))
    data = ConditionalSampler(model, beta0).draw(n, child_seed(seed, "data"))
    return data, beta0
