"""Transformer encoder-decoder forecaster backbone.

The paper compares the LSTM-based RankNet with a Transformer implementation
(§IV-I): multi-head attention with 8 heads and model dimension 32, same
probabilistic output and the same covariate handling.  This module provides
:class:`TransformerSeqModel`, which exposes the same training interface as
:class:`repro.models.deep.rankmodel.RankSeqModel` so the two backbones are
interchangeable inside the forecaster wrappers.  Forecasting runs in the
fleet engine (``FleetForecaster``, reached through the wrappers'
``fleet_engine``), which decodes through ``_encode`` / ``_decode`` and the
Gaussian ``heads``.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ...nn import (
    Dense,
    GaussianOutput,
    Module,
    TransformerDecoderLayer,
    TransformerEncoderLayer,
    causal_mask,
    sinusoidal_positional_encoding,
)
from ...nn.losses import gaussian_nll

__all__ = ["TransformerSeqModel"]


class TransformerSeqModel(Module):
    """Probabilistic Transformer encoder-decoder over rank windows."""

    def __init__(
        self,
        num_covariates: int,
        d_model: int = 32,
        num_heads: int = 8,
        d_ff: int = 64,
        num_encoder_layers: int = 2,
        num_decoder_layers: int = 1,
        target_dim: int = 1,
        encoder_length: int = 60,
        decoder_length: int = 2,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.num_covariates = int(num_covariates)
        self.d_model = int(d_model)
        self.target_dim = int(target_dim)
        self.encoder_length = int(encoder_length)
        self.decoder_length = int(decoder_length)
        self.input_dim = self.target_dim + self.num_covariates
        self.enc_proj = Dense(self.input_dim, d_model, rng=rng, name="enc_proj")
        self.dec_proj = Dense(self.input_dim, d_model, rng=rng, name="dec_proj")
        self.encoder_layers = [
            TransformerEncoderLayer(d_model, num_heads, d_ff, rng=rng, name=f"enc{i}")
            for i in range(num_encoder_layers)
        ]
        self.decoder_layers = [
            TransformerDecoderLayer(d_model, num_heads, d_ff, rng=rng, name=f"dec{i}")
            for i in range(num_decoder_layers)
        ]
        self.heads = [GaussianOutput(d_model, rng=rng, name=f"head.{d}") for d in range(target_dim)]
        self.rng = rng
        self._pe_cache: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _positional(self, length: int) -> np.ndarray:
        if length not in self._pe_cache:
            self._pe_cache[length] = sinusoidal_positional_encoding(length, self.d_model)
        return self._pe_cache[length]

    def _prepare_targets(self, target: np.ndarray) -> np.ndarray:
        target = np.asarray(target, dtype=np.float64)
        if target.ndim == 2:
            target = target[..., None]
        if target.shape[-1] != self.target_dim:
            raise ValueError(f"expected target_dim={self.target_dim}, got {target.shape[-1]}")
        return target

    def _encode(self, enc_tokens: np.ndarray) -> np.ndarray:
        h = self.enc_proj.forward(enc_tokens) + self._positional(enc_tokens.shape[1])[None, :, :]
        for layer in self.encoder_layers:
            h = layer.forward(h)
        return h

    def _decode(self, dec_tokens: np.ndarray, memory: np.ndarray) -> np.ndarray:
        h = self.dec_proj.forward(dec_tokens) + self._positional(dec_tokens.shape[1])[None, :, :]
        mask = causal_mask(dec_tokens.shape[1])
        for layer in self.decoder_layers:
            h = layer.forward(h, memory, self_mask=mask)
        return h

    def _clear_all_caches(self) -> None:
        self.enc_proj.clear_cache()
        self.dec_proj.clear_cache()
        for layer in self.encoder_layers + self.decoder_layers:
            for attr in vars(layer).values():
                if hasattr(attr, "clear_cache"):
                    attr.clear_cache()
                elif hasattr(attr, "_cache") and isinstance(getattr(attr, "_cache"), list):
                    attr._cache.clear()
            for sub in (getattr(layer, "ffn", None),):
                if sub is not None:
                    sub.fc1.clear_cache()
                    sub.fc2.clear_cache()
        for head in self.heads:
            head.clear_cache()

    # ------------------------------------------------------------------
    def _forward_loss(self, batch: Dict[str, np.ndarray], with_backward: bool) -> float:
        target = self._prepare_targets(batch["target"])
        covariates = np.asarray(batch["covariates"], dtype=np.float64)
        weight = np.asarray(batch.get("weight", np.ones(target.shape[0])), dtype=np.float64)
        batch_size, total_len, _ = target.shape
        l0 = total_len - self.decoder_length
        scale = np.abs(target[:, :l0, :]).mean(axis=1) + 1.0
        z = target / scale[:, None, :]

        # encoder tokens: t = 1..L0-1 uses (z_{t-1}, x_t); this matches the
        # token layout used at forecast time (history only)
        enc_tokens = np.concatenate([z[:, 0 : l0 - 1, :], covariates[:, 1:l0, :]], axis=2)
        # decoder tokens: t = L0+1..L0+k uses (z_{t-1}, x_t)
        dec_tokens = np.concatenate(
            [z[:, l0 - 1 : total_len - 1, :], covariates[:, l0:total_len, :]], axis=2
        )
        memory = self._encode(enc_tokens)
        dec_out = self._decode(dec_tokens, memory)

        total_loss = 0.0
        n_terms = self.decoder_length * self.target_dim
        d_dec_out = np.zeros_like(dec_out)
        head_grads: List[tuple] = []
        for step in range(self.decoder_length):
            t = l0 + step
            h_t = dec_out[:, step, :]
            mus = np.empty((batch_size, self.target_dim))
            sigmas = np.empty((batch_size, self.target_dim))
            d_mu = np.empty((batch_size, self.target_dim))
            d_sigma = np.empty((batch_size, self.target_dim))
            for d, head in enumerate(self.heads):
                params = head.forward(h_t)
                mus[:, d] = params.mu
                sigmas[:, d] = params.sigma
                loss, g_mu, g_sigma = gaussian_nll(z[:, t, d], params.mu, params.sigma, weights=weight)
                total_loss += loss / n_terms
                d_mu[:, d] = g_mu / n_terms
                d_sigma[:, d] = g_sigma / n_terms
            head_grads.append((step, d_mu, d_sigma))

        if not with_backward:
            self._clear_all_caches()
            return float(total_loss)

        # heads backward (reverse order of forward calls)
        for step, d_mu, d_sigma in reversed(head_grads):
            dh = np.zeros((batch_size, self.d_model))
            for d in reversed(range(self.target_dim)):
                dh += self.heads[d].backward(d_mu[:, d], d_sigma[:, d])
            d_dec_out[:, step, :] += dh

        # decoder backward
        d_memory_total = np.zeros_like(memory)
        grad = d_dec_out
        for layer in reversed(self.decoder_layers):
            grad, d_memory = layer.backward(grad)
            d_memory_total += d_memory
        self.dec_proj.backward(grad)

        # encoder backward
        grad = d_memory_total
        for layer in reversed(self.encoder_layers):
            grad = layer.backward(grad)
        self.enc_proj.backward(grad)
        return float(total_loss)

    def loss_and_backward(self, batch: Dict[str, np.ndarray]) -> float:
        return self._forward_loss(batch, with_backward=True)

    def validation_loss(self, batch: Dict[str, np.ndarray]) -> float:
        return self._forward_loss(batch, with_backward=False)
