"""Reference Monte-Carlo decode for the Transformer backbone.

:func:`transformer_forecast_samples` keeps the single-car loop
``TransformerSeqModel.forecast_samples`` ran before every forecast moved
onto :class:`repro.serving.FleetForecaster`.  It encodes the history on
``n_samples`` tiled rows (the engine encodes one row per distinct
warm-up), re-runs the causal decoder over the whole generated prefix at
every lap and draws each target dimension with its own
``standard_normal(n_samples)`` call, in the same order as the engine's
``_TransformerBackend.run_group``.  It shares the model's modules, so it is
an independent oracle for the engine's Transformer path: the two agree to
round-off (attention sums run over differently shaped batches), not bit
for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def transformer_forecast_samples(
    model,
    history_target: np.ndarray,
    history_covariates: np.ndarray,
    future_covariates: np.ndarray,
    n_samples: int = 100,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """``(n_samples, horizon)`` rank trajectories on the original scale."""
    rng = rng or model.rng
    history_target = np.asarray(history_target, dtype=np.float64)
    if history_target.ndim == 1:
        history_target = history_target[:, None]
    history_covariates = np.asarray(history_covariates, dtype=np.float64)
    future_covariates = np.asarray(future_covariates, dtype=np.float64)
    horizon = future_covariates.shape[0]
    l0 = history_target.shape[0]

    was_training = model.training
    model.eval()
    scale = np.abs(history_target).mean(axis=0) + 1.0
    z_hist = history_target / scale

    enc_tokens = np.concatenate([z_hist[0 : l0 - 1], history_covariates[1:l0]], axis=1)
    enc_tokens = np.tile(enc_tokens[None, :, :], (n_samples, 1, 1))
    memory = model._encode(enc_tokens)
    model._clear_all_caches()

    samples = np.empty((n_samples, horizon), dtype=np.float64)
    z_generated = [np.tile(z_hist[-1][None, :], (n_samples, 1))]
    for h in range(horizon):
        # decoder tokens built from the last observed value + samples so far
        tokens = []
        for step in range(h + 1):
            cov = np.tile(future_covariates[step][None, :], (n_samples, 1))
            tokens.append(np.concatenate([z_generated[step], cov], axis=1))
        dec_tokens = np.stack(tokens, axis=1)
        dec_out = model._decode(dec_tokens, memory)
        h_last = dec_out[:, -1, :]
        z_next = np.empty((n_samples, model.target_dim))
        for d, head in enumerate(model.heads):
            params = head.forward(h_last)
            z_next[:, d] = params.mu + params.sigma * rng.standard_normal(n_samples)
        model._clear_all_caches()
        samples[:, h] = z_next[:, 0] * scale[0]
        z_generated.append(z_next)
        # re-encode is not needed; memory reused
    model.train(was_training)
    return samples
