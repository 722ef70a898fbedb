"""Student-t likelihood head (heavy-tailed alternative to the Gaussian).

Rank positions around pit cycles have heavy-tailed innovations: most laps
the rank barely moves, but a pit stop causes a jump of many positions.  A
Student-t predictive distribution (as used by DeepAR for real-valued data
in GluonTS) captures those tails better than a Gaussian.  The head
parameterises location ``mu``, scale ``sigma`` (softplus) and degrees of
freedom ``nu`` (2 + softplus, so the variance exists).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .activations import sigmoid, softplus
from .layers import Dense
from .module import Module

__all__ = ["StudentTParams", "StudentTOutput", "student_t_nll"]

_SIGMA_FLOOR = 1e-4
_NU_FLOOR = 2.0


@dataclass
class StudentTParams:
    """Parameters of a location-scale Student-t predictive distribution."""

    mu: np.ndarray
    sigma: np.ndarray
    nu: np.ndarray

    def sample(self, rng: np.random.Generator, n_samples: int = 1) -> np.ndarray:
        t = rng.standard_t(np.broadcast_to(self.nu, (n_samples,) + self.nu.shape))
        return self.mu[None, ...] + self.sigma[None, ...] * t

    def quantile(self, q: float) -> np.ndarray:
        from scipy import stats

        return self.mu + self.sigma * stats.t.ppf(q, df=self.nu)


def student_t_nll(
    z: np.ndarray, mu: np.ndarray, sigma: np.ndarray, nu: np.ndarray
) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Mean negative log-likelihood and gradients w.r.t. ``mu``, ``sigma``, ``nu``."""
    from scipy.special import digamma, gammaln

    z = np.asarray(z, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    n = max(z.size, 1)
    t = (z - mu) / sigma
    q = 1.0 + t * t / nu
    nll = (
        -gammaln((nu + 1.0) / 2.0)
        + gammaln(nu / 2.0)
        + 0.5 * np.log(np.pi * nu)
        + np.log(sigma)
        + (nu + 1.0) / 2.0 * np.log(q)
    )
    loss = float(nll.sum() / n)
    # gradients
    d_t = (nu + 1.0) * t / (nu * q)
    d_mu = -d_t / sigma / n
    d_sigma = (1.0 / sigma - d_t * t / sigma) / n
    d_nu = (
        -0.5 * digamma((nu + 1.0) / 2.0)
        + 0.5 * digamma(nu / 2.0)
        + 0.5 / nu
        + 0.5 * np.log(q)
        - (nu + 1.0) / 2.0 * (t * t) / (nu * nu * q)
    ) / n
    return loss, d_mu, d_sigma, d_nu


class StudentTOutput(Module):
    """Projects hidden states to ``(mu, sigma, nu)`` of a Student-t likelihood."""

    def __init__(
        self,
        hidden_dim: int,
        rng: np.random.Generator | int | None = None,
        name: str = "student_t_out",
    ) -> None:
        super().__init__()
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.hidden_dim = int(hidden_dim)
        self.mu_head = Dense(hidden_dim, 1, rng=rng, name=f"{name}.mu")
        self.sigma_head = Dense(hidden_dim, 1, rng=rng, name=f"{name}.sigma")
        self.nu_head = Dense(hidden_dim, 1, rng=rng, name=f"{name}.nu")
        self._cache: List[tuple] = []

    def forward(self, h: np.ndarray) -> StudentTParams:
        mu = self.mu_head.forward(h)[..., 0]
        pre_sigma = self.sigma_head.forward(h)[..., 0]
        pre_nu = self.nu_head.forward(h)[..., 0]
        sigma = softplus(pre_sigma) + _SIGMA_FLOOR
        nu = softplus(pre_nu) + _NU_FLOOR
        self._cache.append((pre_sigma, pre_nu))
        return StudentTParams(mu=mu, sigma=sigma, nu=nu)

    def backward(self, d_mu: np.ndarray, d_sigma: np.ndarray, d_nu: np.ndarray) -> np.ndarray:
        if not self._cache:
            raise RuntimeError("backward called more times than forward")
        pre_sigma, pre_nu = self._cache.pop()
        d_pre_sigma = np.asarray(d_sigma, dtype=np.float64) * sigmoid(pre_sigma)
        d_pre_nu = np.asarray(d_nu, dtype=np.float64) * sigmoid(pre_nu)
        dh = self.nu_head.backward(d_pre_nu[..., None])
        dh = dh + self.sigma_head.backward(d_pre_sigma[..., None])
        dh = dh + self.mu_head.backward(np.asarray(d_mu, dtype=np.float64)[..., None])
        return dh

    def clear_cache(self) -> None:
        self._cache.clear()
        self.mu_head.clear_cache()
        self.sigma_head.clear_cache()
        self.nu_head.clear_cache()
