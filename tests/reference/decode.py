"""Reference fused decode: every lap on all sample rows.

:class:`AllRowsRecurrentBackend` keeps the fused Monte-Carlo loop that
:class:`repro.serving.FleetForecaster` ran before its first lap moved to
one row per request.  It tiles the per-request states and last targets to
every sample row up front and steps all laps, the first included, through
the driver's ``load`` / ``step_decode``.  The warm-up, the block RNG and the
head are the shipped engine's, so the same seeds drive both and the
parity tests compare the returned samples byte for byte on every precision
tier (the stepwise decode is a float64-only reference).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.inference import tile_states
from repro.nn.precision import assert_dtype, working_empty
from repro.serving import FleetForecaster
from repro.serving.engine import _RecurrentBackend


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
