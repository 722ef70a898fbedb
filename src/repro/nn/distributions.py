"""Probabilistic output heads.

Following DeepAR (Salinas et al.) and the paper, the network does not emit a
point forecast directly: a projection of the hidden state parameterises a
predefined likelihood ``p(z | theta)``; training maximises the
log-likelihood of the observed targets and forecasting draws Monte-Carlo
samples from the predicted distribution.

For the real-valued rank/lap-time targets we use a Gaussian whose scale is
produced through a softplus so it is always positive:

    mu(h)    = W_mu^T  h + b_mu
    sigma(h) = softplus(W_sigma^T h + b_sigma)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import sigmoid, softplus
from .layers import Dense
from .module import Module

__all__ = ["GaussianParams", "GaussianOutput", "gaussian_sample", "gaussian_quantile"]

_SIGMA_FLOOR = 1e-4
_SQRT2 = np.sqrt(2.0)


@dataclass
class GaussianParams:
    """Parameters of a (diagonal) Gaussian predictive distribution."""

    mu: np.ndarray
    sigma: np.ndarray

    def sample(self, rng: np.random.Generator, n_samples: int = 1) -> np.ndarray:
        """Draw ``n_samples`` per entry; output shape is ``(n_samples,) + mu.shape``."""
        return gaussian_sample(self.mu, self.sigma, rng, n_samples)

    def quantile(self, q: float) -> np.ndarray:
        return gaussian_quantile(self.mu, self.sigma, q)


def gaussian_sample(
    mu: np.ndarray, sigma: np.ndarray, rng: np.random.Generator, n_samples: int = 1
) -> np.ndarray:
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    eps = rng.standard_normal((n_samples,) + mu.shape)
    return mu[None, ...] + sigma[None, ...] * eps


def gaussian_quantile(mu: np.ndarray, sigma: np.ndarray, q: float) -> np.ndarray:
    """Exact Gaussian quantile via the probit (``scipy.special.erfinv``, imported here)."""
    from scipy.special import erfinv

    z = _SQRT2 * erfinv(2.0 * q - 1.0)
    return np.asarray(mu) + z * np.asarray(sigma)


class GaussianOutput(Module):
    """Projects hidden states to ``(mu, sigma)`` of a Gaussian likelihood."""

    def __init__(
        self,
        hidden_dim: int,
        rng: np.random.Generator | int | None = None,
        sigma_floor: float = _SIGMA_FLOOR,
        name: str = "gaussian_out",
    ) -> None:
        super().__init__()
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.hidden_dim = int(hidden_dim)
        self.sigma_floor = float(sigma_floor)
        self.mu_head = Dense(hidden_dim, 1, activation=None, rng=rng, name=f"{name}.mu")
        self.sigma_head = Dense(hidden_dim, 1, activation=None, rng=rng, name=f"{name}.sigma")
        self._cache = []

    def forward(self, h: np.ndarray) -> GaussianParams:
        """``h`` has shape ``(..., hidden_dim)``; outputs have shape ``(...,)``."""
        mu = self.mu_head.forward(h)[..., 0]
        pre_sigma = self.sigma_head.forward(h)[..., 0]
        sigma = softplus(pre_sigma) + self.sigma_floor
        self._cache.append(pre_sigma)
        return GaussianParams(mu=mu, sigma=sigma)

    def backward(self, d_mu: np.ndarray, d_sigma: np.ndarray) -> np.ndarray:
        """Back-propagate gradients w.r.t. ``mu`` and ``sigma`` to the hidden state."""
        if not self._cache:
            raise RuntimeError("backward called more times than forward")
        pre_sigma = self._cache.pop()
        d_pre_sigma = np.asarray(d_sigma, dtype=np.float64) * sigmoid(pre_sigma)
        dh_sigma = self.sigma_head.backward(d_pre_sigma[..., None])
        dh_mu = self.mu_head.backward(np.asarray(d_mu, dtype=np.float64)[..., None])
        return dh_mu + dh_sigma

    def clear_cache(self) -> None:
        self._cache.clear()
        self.mu_head.clear_cache()
        self.sigma_head.clear_cache()
