"""Reference decode loops for the fused Monte-Carlo engine.

:class:`StepwiseRecurrentBackend` keeps the per-lap loop
:class:`repro.serving.FleetForecaster` ran before its decode was fused:
one allocating ``driver.step`` per lap on all sample rows, per-step
``np.repeat`` covariate rows and nested per-dim / per-request
``standard_normal`` calls.  It runs on the shipped driver, so timing it
against the engine measures the loop structure alone; it is a float64
reference.

:class:`AllRowsRecurrentBackend` keeps the fused loop from before its
first lap moved to one row per request.  It tiles the per-request states
and last targets to every sample row up front and steps all laps, the
first included, through the driver's ``load`` / ``step_decode``.  Its block
RNG and head are the engine's, so the parity tests compare it byte for
byte on every precision tier.

Both are installed on a stock engine; the warm-up stays the engine's.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.inference import tile_states
from repro.nn.precision import assert_dtype, working_empty
from repro.serving import FleetForecaster
from repro.serving.engine import _RecurrentBackend


def randomize_biases(model, seed=3):
    """Fresh models have zero (or constant) recurrent biases, under which a
    moved bias addition changes no bit; parity tests draw them."""
    rng = np.random.default_rng(seed)
    for param in model.lstm.parameters():
        if param.data.ndim == 1:
            param.data[...] = rng.normal(0.0, 0.5, param.data.shape)
    return model


class StepwiseRecurrentBackend(_RecurrentBackend):
    """The recurrent backend with the per-lap reference decode loop."""

    def _decode_fused(self, counts, offsets, horizon, total, states, z_prev,
                      scale0_rows, future, rngs):
        return self._decode_stepwise(
            counts, offsets, horizon, total,
            tile_states(states, counts), np.repeat(z_prev, counts, axis=0),
            scale0_rows, future, rngs,
        )

    def _decode_stepwise(
        self,
        counts: np.ndarray,
        offsets: np.ndarray,
        horizon: int,
        total: int,
        states,
        z_prev: np.ndarray,
        scale0_rows: np.ndarray,
        future: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        target_dim = self.model.target_dim
        samples = np.empty((total, horizon), dtype=np.float64)
        for h in range(horizon):
            cov_rows = np.repeat(future[:, h, :], counts, axis=0)
            x_t = np.concatenate([z_prev, cov_rows], axis=1)
            h_t, states = self.driver.step(x_t, states)
            z_next = np.empty((total, target_dim))
            mu_all, sigma_all = self.head(h_t)  # one (H, 2D) GEMM for all dims
            # dim-major draw order: all requests for dim 0, then dim 1, ...
            # (several requests may share one RNG stream)
            for d in range(target_dim):
                for i in range(len(counts)):
                    rows = slice(offsets[i], offsets[i + 1])
                    z_next[rows, d] = mu_all[rows, d] + sigma_all[
                        rows, d
                    ] * rngs[i].standard_normal(int(counts[i]))
            samples[:, h] = z_next[:, 0] * scale0_rows
            z_prev = z_next
        return samples


def stepwise_forecaster(model, **kwargs) -> FleetForecaster:
    """A :class:`FleetForecaster` whose recurrent decode runs the per-lap
    reference loop; ``kwargs`` are the engine's own (mode, cache_size...)."""
    engine = FleetForecaster(model, **kwargs)
    engine._backend = StepwiseRecurrentBackend(engine)
    return engine


class AllRowsRecurrentBackend(_RecurrentBackend):
    """The recurrent backend with the all-rows fused decode loop."""

    def _decode_fused(
        self,
        counts: np.ndarray,
        offsets: np.ndarray,
        horizon: int,
        total: int,
        states,
        z_prev: np.ndarray,
        scale0_rows: np.ndarray,
        future: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        states = tile_states(states, counts)
        z_prev = np.repeat(z_prev, counts, axis=0)
        target_dim = self.model.target_dim
        dtype = self.dtype
        guarded = dtype != np.float64
        noise = self._block_noise(rngs, counts, offsets, horizon, target_dim, total)
        if guarded:
            noise = noise.astype(dtype)
        cov_all = np.ascontiguousarray(
            np.repeat(future, counts, axis=0).transpose(1, 0, 2), dtype=dtype
        )
        self.driver.load(states)
        x_buf = working_empty((total, target_dim + cov_all.shape[2]), dtype=dtype)
        z = np.ascontiguousarray(z_prev, dtype=dtype)
        samples = np.empty((total, horizon), dtype=np.float64)
        for h in range(horizon):
            x_buf[:, :target_dim] = z
            x_buf[:, target_dim:] = cov_all[h]
            h_t = self.driver.step_decode(x_buf)
            if guarded:
                assert_dtype(h_t, dtype, "decode hidden state")
            mu_all, sigma_all = self.head(h_t)
            if guarded:
                assert_dtype(mu_all, dtype, "head mu")
                assert_dtype(sigma_all, dtype, "head sigma")
            np.multiply(sigma_all, noise[h], out=z)
            z += mu_all
            np.multiply(z[:, 0], scale0_rows, out=samples[:, h])
        return samples


def all_rows_forecaster(model, **kwargs) -> FleetForecaster:
    """A :class:`FleetForecaster` whose recurrent decode runs every lap on
    all sample rows; ``kwargs`` are the engine's own (mode, precision...)."""
    engine = FleetForecaster(model, **kwargs)
    engine._backend = AllRowsRecurrentBackend(engine)
    return engine
