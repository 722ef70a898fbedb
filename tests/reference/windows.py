"""Reference window cutting: the per-window loop ``make_windows`` replaced.

:func:`reference_make_windows` cuts every window with the shipped
:func:`repro.data.extract_window`, weights it with
:func:`repro.data.windows.rank_change_weight` and stacks the results, one window at
a time.  The shipped :func:`repro.data.make_windows` cuts each series in one
vectorised pass; parity tests compare the two byte for byte.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.data.features import CarFeatureSeries
from repro.data.schema import ALL_COVARIATES
from repro.data.windows import WindowDataset, extract_window, rank_change_weight


def reference_make_windows(
    all_series: Iterable[CarFeatureSeries],
    encoder_length: int = 60,
    decoder_length: int = 2,
    stride: int = 1,
    min_history: Optional[int] = None,
    rank_change_loss_weight: float = 1.0,
    car_vocabulary: Optional[Dict[Tuple[str, int], int]] = None,
) -> WindowDataset:
    """Same contract as :func:`repro.data.make_windows`."""
    if min_history is None:
        min_history = encoder_length
    min_history = max(int(min_history), 1)
    vocab: Dict[Tuple[str, int], int] = car_vocabulary if car_vocabulary is not None else {}

    targets: List[np.ndarray] = []
    covariates: List[np.ndarray] = []
    car_index: List[int] = []
    weights: List[float] = []
    meta: List[Tuple[str, int, int]] = []

    for series in all_series:
        key = (series.event, series.car_id)
        if key not in vocab:
            vocab[key] = len(vocab)
        first_origin = min_history - 1
        last_origin = len(series) - decoder_length - 1
        for origin in range(first_origin, last_origin + 1, stride):
            target, cov = extract_window(series, origin, encoder_length, decoder_length)
            targets.append(target)
            covariates.append(cov)
            car_index.append(vocab[key])
            future = target[encoder_length:]
            anchor = target[encoder_length - 1]
            weights.append(rank_change_weight(anchor, future, rank_change_loss_weight))
            meta.append((series.race_id, series.car_id, origin))

    if not targets:
        empty_t = np.zeros((0, encoder_length + decoder_length))
        empty_c = np.zeros((0, encoder_length + decoder_length, len(ALL_COVARIATES)))
        return WindowDataset(
            encoder_length=encoder_length,
            decoder_length=decoder_length,
            target=empty_t,
            covariates=empty_c,
            car_index=np.zeros(0, dtype=np.int64),
            weight=np.zeros(0),
            meta=[],
            car_vocabulary=vocab,
        )

    return WindowDataset(
        encoder_length=encoder_length,
        decoder_length=decoder_length,
        target=np.stack(targets),
        covariates=np.stack(covariates),
        car_index=np.array(car_index, dtype=np.int64),
        weight=np.array(weights, dtype=np.float64),
        meta=meta,
        car_vocabulary=vocab,
    )
