"""Sliding-window datasets for the sequence-to-sequence forecasters.

Training follows the DeepAR recipe (Algorithm 1): each training instance is
a window ``[z_{1:L0+k}, x_{1:L0+k}]`` cut from one car's race, where ``L0``
is the encoder (context) length and ``k`` the prediction length.  The loss
is evaluated on the decoder part only; instances whose rank changes inside
the decoder window can be up-weighted (Fig. 7 step 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .features import CarFeatureSeries
from .schema import ALL_COVARIATES, FeatureSpec

__all__ = ["WindowDataset", "extract_window", "make_windows", "rank_change_weight"]


def rank_change_weight(anchor: float, target_future: np.ndarray, weight: float) -> float:
    """Instance weight: ``weight`` when the rank changes inside the decoder span.

    ``anchor`` is the last observed (encoder) rank; an instance counts as a
    "rank change" instance when any decoder-step rank differs from it.
    """
    target_future = np.asarray(target_future, dtype=np.float64)
    changed = bool(np.any(np.abs(target_future - float(anchor)) > 0.5))
    return float(weight) if changed else 1.0


@dataclass
class WindowDataset:
    """Columnar collection of forecast windows.

    Attributes
    ----------
    target:
        ``(N, L0 + k)`` rank values.
    covariates:
        ``(N, L0 + k, F)`` full covariate matrix (all of
        :data:`repro.data.schema.ALL_COVARIATES`); models select the columns
        they need via a :class:`FeatureSpec`.
    car_index:
        ``(N,)`` integer index of the car (for embeddings), see
        ``car_vocabulary``.
    weight:
        ``(N,)`` per-instance loss weights.
    meta:
        per-window provenance ``(race_id, car_id, origin_lap_index)``.
    """

    encoder_length: int
    decoder_length: int
    target: np.ndarray
    covariates: np.ndarray
    car_index: np.ndarray
    weight: np.ndarray
    meta: List[Tuple[str, int, int]]
    car_vocabulary: Dict[Tuple[str, int], int] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.target.shape[0])

    @property
    def total_length(self) -> int:
        return self.encoder_length + self.decoder_length

    @property
    def num_covariates(self) -> int:
        return int(self.covariates.shape[-1])

    def select_covariates(self, spec: FeatureSpec) -> np.ndarray:
        """Covariate sub-matrix for a model's :class:`FeatureSpec`."""
        names = spec.covariate_names()
        if not names:
            return np.zeros(self.covariates.shape[:2] + (0,), dtype=np.float64)
        idx = [ALL_COVARIATES.index(n) for n in names]
        return self.covariates[:, :, idx]

    def subset(self, indices: Sequence[int]) -> "WindowDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return WindowDataset(
            encoder_length=self.encoder_length,
            decoder_length=self.decoder_length,
            target=self.target[indices],
            covariates=self.covariates[indices],
            car_index=self.car_index[indices],
            weight=self.weight[indices],
            meta=[self.meta[i] for i in indices],
            car_vocabulary=self.car_vocabulary,
        )


def extract_window(
    series: CarFeatureSeries,
    origin: int,
    encoder_length: int,
    decoder_length: int,
    pad_value: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cut one window ending its encoder at index ``origin`` (inclusive).

    The window covers indices ``origin - encoder_length + 1 .. origin +
    decoder_length``.  If the car's history is shorter than the encoder
    length the window is left-padded with ``pad_value`` (targets) and zeros
    (covariates).  Raises ``IndexError`` when the decoder part would run past
    the end of the series.
    """
    total = encoder_length + decoder_length
    end = origin + decoder_length
    if end >= len(series):
        raise IndexError(
            f"window decoder end {end} out of range for series of length {len(series)}"
        )
    start = origin - encoder_length + 1
    target = np.full(total, pad_value, dtype=np.float64)
    covariates = np.zeros((total, len(ALL_COVARIATES)), dtype=np.float64)
    src_start = max(start, 0)
    dst_start = src_start - start
    target[dst_start:] = series.rank[src_start : end + 1]
    covariates[dst_start:] = series.covariates[src_start : end + 1]
    return target, covariates


def make_windows(
    all_series: Iterable[CarFeatureSeries],
    encoder_length: int = 60,
    decoder_length: int = 2,
    stride: int = 1,
    min_history: Optional[int] = None,
    rank_change_loss_weight: float = 1.0,
    car_vocabulary: Optional[Dict[Tuple[str, int], int]] = None,
) -> WindowDataset:
    """Build a :class:`WindowDataset` from many car series.

    Each series' windows are cut in one vectorised pass (one ``np.take``
    of a window-index matrix from the left-padded rank and covariate
    arrays) and written once into the preallocated output arrays; the result equals cutting every
    window with :func:`extract_window` and weighting it with
    :func:`rank_change_weight`.

    Parameters
    ----------
    min_history:
        Minimum number of observed laps before the first forecast origin
        (defaults to the encoder length, i.e. full windows only; smaller
        values produce left-padded windows).
    rank_change_loss_weight:
        Weight given to instances whose rank changes inside the decoder span
        (Fig. 7 step 1; the paper's optimum is 9).
    car_vocabulary:
        Optional pre-existing mapping ``(event, car_id) -> index`` so train
        and test datasets share embedding indices.
    """
    if encoder_length < 1:
        raise ValueError(f"encoder_length must be >= 1, got {encoder_length}")
    if min_history is None:
        min_history = encoder_length
    min_history = max(int(min_history), 1)
    vocab: Dict[Tuple[str, int], int] = car_vocabulary if car_vocabulary is not None else {}

    # one origin range per series: encoders end at lap index ``origin``
    plan: List[Tuple[CarFeatureSeries, range]] = []
    for series in all_series:
        key = (series.event, series.car_id)
        if key not in vocab:
            vocab[key] = len(vocab)
        plan.append((series, range(min_history - 1, len(series) - decoder_length, stride)))

    total = encoder_length + decoder_length
    count = sum(len(origins) for _, origins in plan)
    target = np.empty((count, total))
    covariates = np.empty((count, total, len(ALL_COVARIATES)))
    car_index = np.empty(count, dtype=np.int64)
    meta: List[Tuple[str, int, int]] = []
    pad = encoder_length - 1
    offsets = np.arange(total)
    row = 0
    for series, origins in plan:
        if not origins:
            continue
        rows = slice(row, row + len(origins))
        # left-pad by ``pad`` laps: the window of ``origin`` then covers
        # padded indices ``origin .. origin + total - 1``
        windows = np.arange(origins.start, origins.stop, origins.step)[:, None] + offsets
        rank = np.zeros(pad + len(series))
        rank[pad:] = series.rank
        cov = np.zeros((pad + len(series), len(ALL_COVARIATES)))
        cov[pad:] = series.covariates
        np.take(rank, windows, out=target[rows], mode="clip")
        np.take(cov, windows, axis=0, out=covariates[rows], mode="clip")
        car_index[rows] = vocab[(series.event, series.car_id)]
        meta += [(series.race_id, series.car_id, origin) for origin in origins]
        row = rows.stop

    # rank_change_weight, one column per decoder step
    anchor = target[:, encoder_length - 1 : encoder_length]
    changed = np.any(np.abs(target[:, encoder_length:] - anchor) > 0.5, axis=1)
    return WindowDataset(
        encoder_length=encoder_length,
        decoder_length=decoder_length,
        target=target,
        covariates=covariates,
        car_index=car_index,
        weight=np.where(changed, float(rank_change_loss_weight), 1.0),
        meta=meta,
        car_vocabulary=vocab,
    )
