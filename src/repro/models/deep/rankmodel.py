"""DeepAR-style autoregressive LSTM encoder-decoder (the RankModel).

This is the sequence backbone shared by the DeepAR baseline and every
RankNet variant (Fig. 5(c)).  At each lap the network receives the previous
(scaled) target value and the current covariates, updates a stacked-LSTM
state and emits the parameters of a Gaussian predictive distribution:

    h_t           = LSTM(h_{t-1}, [z_{t-1}, x_t])
    (mu_t, sig_t) = GaussianOutput(h_t)

Training (Algorithm 1) maximises the log-likelihood of the observed targets
over the decoder steps with optional per-instance weights; forecasting
(Algorithm 2) feeds Monte-Carlo samples back into the recurrence.  That
decode runs in the fleet engine (``FleetForecaster``), reached through
the forecaster wrappers' ``fleet_engine`` in :mod:`repro.models.deep.ranknet`.

Training runs on the fused full-sequence engine: one
``forward_sequence`` pass through the recurrent stack (all input
projections batched into one GEMM per layer), one fused
:class:`~repro.nn.layers.MultiGaussianOutput` head projection over the
whole decoder block, one vectorised :func:`~repro.nn.losses.
gaussian_nll_seq` evaluation, and one ``backward_sequence`` BPTT sweep.
This is the only training path; the lap-by-lap loop it replaced is kept
as the reference ``stepwise_loss`` in ``tests/reference/training.py``,
which the fused path is gradient-checked and benchmarked against
(``benchmarks/test_bench_training.py``).

Targets may be multivariate (``target_dim > 1``): the RankNet-Joint ablation
models ``[Rank, LapStatus, TrackStatus]`` jointly through one fused Gaussian
head covering every dimension.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ...data.scaling import MeanScaler
from ...nn import Module, MultiGaussianOutput, StackedGRU, StackedLSTM
from ...nn.losses import gaussian_nll_seq

__all__ = ["RankSeqModel"]


class RankSeqModel(Module):
    """Probabilistic recurrent encoder-decoder over rank windows.

    ``backbone`` selects the recurrent stack: ``"lstm"`` (the paper's
    default) or ``"gru"`` (lighter-weight, one state vector per layer).
    Both stack on the same :class:`~repro.nn.recurrent.RecurrentStack`
    loop, so training and the fleet inference engine treat them
    identically.
    """

    def __init__(
        self,
        num_covariates: int,
        hidden_dim: int = 40,
        num_layers: int = 2,
        target_dim: int = 1,
        encoder_length: int = 60,
        decoder_length: int = 2,
        dropout: float = 0.0,
        backbone: str = "lstm",
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if target_dim < 1:
            raise ValueError("target_dim must be >= 1")
        if backbone not in ("lstm", "gru"):
            raise ValueError(f"backbone must be 'lstm' or 'gru', got {backbone!r}")
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.num_covariates = int(num_covariates)
        self.hidden_dim = int(hidden_dim)
        self.num_layers = int(num_layers)
        self.target_dim = int(target_dim)
        self.encoder_length = int(encoder_length)
        self.decoder_length = int(decoder_length)
        self.backbone = backbone
        self.input_dim = self.target_dim + self.num_covariates
        if backbone == "gru":
            if dropout > 0.0:
                raise ValueError("the GRU stack has no inter-layer dropout; use backbone='lstm'")
            self.lstm = StackedGRU(
                input_dim=self.input_dim,
                hidden_dim=hidden_dim,
                num_layers=num_layers,
                rng=rng,
            )
        else:
            self.lstm = StackedLSTM(
                input_dim=self.input_dim,
                hidden_dim=hidden_dim,
                num_layers=num_layers,
                dropout=dropout,
                rng=rng,
            )
        self.head = MultiGaussianOutput(hidden_dim, target_dim, rng=rng, name="head")
        self.scaler = MeanScaler()
        self.rng = rng

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _prepare_targets(self, target: np.ndarray) -> np.ndarray:
        """Ensure targets have shape ``(B, T, target_dim)``."""
        target = np.asarray(target, dtype=np.float64)
        if target.ndim == 2:
            target = target[..., None]
        if target.shape[-1] != self.target_dim:
            raise ValueError(
                f"expected target_dim={self.target_dim}, got {target.shape[-1]}"
            )
        return target

    def _scale_factors(self, target: np.ndarray) -> np.ndarray:
        """Per-window, per-dimension scale from the encoder span: ``(B, target_dim)``."""
        enc = target[:, : self.encoder_length, :]
        return np.abs(enc).mean(axis=1) + 1.0

    def _check_batch(self, batch: Dict[str, np.ndarray]):
        target = self._prepare_targets(batch["target"])
        covariates = np.asarray(batch["covariates"], dtype=np.float64)
        weight = np.asarray(batch.get("weight", np.ones(target.shape[0])), dtype=np.float64)
        if covariates.shape[-1] != self.num_covariates:
            raise ValueError(
                f"expected {self.num_covariates} covariates, got {covariates.shape[-1]}"
            )
        return target, covariates, weight

    # ------------------------------------------------------------------
    # training (Algorithm 1) — fused full-sequence engine
    # ------------------------------------------------------------------
    def _forward_loss(
        self, batch: Dict[str, np.ndarray], with_backward: bool
    ) -> float:
        """Teacher-forced loss (and BPTT) via the fused sequence path.

        Forward: one ``forward_sequence`` through the stack, one fused head
        projection over the whole decoder block, one vectorised NLL.  With
        ``with_backward=False`` (validation) no BPTT caches are built at
        all.  Produces the same loss and parameter gradients as the
        stepwise reference (``tests/reference/training.py``) to well below
        1e-10.
        """
        target, covariates, weight = self._check_batch(batch)
        batch_size, total_len, _ = target.shape
        scale = self._scale_factors(target)  # (B, D)
        z = target / scale[:, None, :]

        # step t consumes [z_{t-1}, x_t]; build all T-1 inputs in one block
        x = np.concatenate([z[:, :-1, :], covariates[:, 1:, :]], axis=2)
        h_seq, _ = self.lstm.forward_sequence(x, with_cache=with_backward)

        decoder_start = max(total_len - self.decoder_length, 1)
        j0 = decoder_start - 1  # h_seq[:, j] is the hidden state of step t = j + 1
        mu, sigma = self.head.forward(h_seq[:, j0:, :], with_cache=with_backward)
        loss, d_mu, d_sigma = gaussian_nll_seq(
            z[:, decoder_start:, :], mu, sigma, weights=weight
        )
        if not with_backward:
            return float(loss)

        dh_dec = self.head.backward(d_mu, d_sigma)  # (B, K, H)
        d_outputs = np.zeros((batch_size, total_len - 1, self.hidden_dim))
        d_outputs[:, j0:, :] = dh_dec
        self.lstm.backward_sequence(d_outputs)
        return float(loss)

    def loss_and_backward(self, batch: Dict[str, np.ndarray]) -> float:
        return self._forward_loss(batch, with_backward=True)

    def validation_loss(self, batch: Dict[str, np.ndarray]) -> float:
        """Forward-only loss on the cache-free path (no BPTT tensors)."""
        return self._forward_loss(batch, with_backward=False)
