"""Forecast request descriptors consumed by the fleet engine."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence

import numpy as np

__all__ = ["ForecastRequest", "NamedForecastRequest", "fold_forecasts", "spawn_request_rngs"]


@dataclass
class ForecastRequest:
    """One Monte-Carlo forecast task for the :class:`FleetForecaster`.

    Parameters
    ----------
    history_target:
        ``(L,)`` or ``(L, target_dim)`` observed targets up to and including
        the forecast origin lap.
    history_covariates:
        ``(L, num_covariates)`` covariates aligned with the history.
    future_covariates:
        ``(H, num_covariates)`` covariates over the forecast horizon.
    n_samples:
        Number of Monte-Carlo trajectories to draw.
    rng:
        Per-request RNG stream.  Supplying independent streams (see
        :func:`spawn_request_rngs`) makes the forecast reproducible and
        independent of how requests are batched; an integer is accepted as
        a seed (``np.random.default_rng(rng)`` — the convention the wire
        protocol uses for explicit per-request seeds); when omitted the
        engine falls back to the model's shared generator.
    key:
        Stable identity of the forecast subject (e.g. ``(race_id, car_id)``).
        Requests sharing ``key`` and ``origin`` also share their warm-up
        computation, and ``carry`` mode uses ``key`` to cache recurrent
        state between consecutive origins.
    origin:
        Absolute lap index of the last history lap; required for ``carry``
        mode so the engine knows how far to advance a cached state.
    """

    history_target: np.ndarray
    history_covariates: np.ndarray
    future_covariates: np.ndarray
    n_samples: int = 100
    rng: Optional[np.random.Generator] = None
    key: Optional[Hashable] = None
    origin: Optional[int] = None
    _target: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rng is not None and not isinstance(self.rng, np.random.Generator):
            self.rng = np.random.default_rng(self.rng)
        target = np.asarray(self.history_target, dtype=np.float64)
        if target.ndim == 1:
            target = target[:, None]
        if target.ndim != 2 or target.shape[0] < 1:
            raise ValueError(f"history_target must be (L,) or (L, D) with L >= 1, got {target.shape}")
        self._target = target
        self.history_covariates = np.asarray(self.history_covariates, dtype=np.float64)
        self.future_covariates = np.asarray(self.future_covariates, dtype=np.float64)
        if self.history_covariates.ndim != 2:
            raise ValueError("history_covariates must be 2-D (L, C)")
        if self.future_covariates.ndim != 2:
            raise ValueError("future_covariates must be 2-D (H, C)")
        if self.future_covariates.shape[0] < 1:
            raise ValueError("future_covariates must cover a horizon of at least 1 lap")
        if self.history_covariates.shape[0] != target.shape[0]:
            raise ValueError(
                "history covariates misaligned with history target: "
                f"{self.history_covariates.shape[0]} != {target.shape[0]}"
            )
        self.n_samples = int(self.n_samples)
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.origin is not None:
            self.origin = _origin_lap(self.origin)

    # ------------------------------------------------------------------
    @property
    def target(self) -> np.ndarray:
        """History targets normalised to ``(L, target_dim)``."""
        return self._target

    @property
    def length(self) -> int:
        return int(self._target.shape[0])

    @property
    def horizon(self) -> int:
        return int(self.future_covariates.shape[0])

    @property
    def target_dim(self) -> int:
        return int(self._target.shape[1])

    def warmup_key(self) -> Hashable:
        """Identity used to deduplicate warm-up computations inside a batch."""
        if self.key is not None and self.origin is not None:
            return (self.key, self.origin, self.length)
        return id(self)


def _origin_lap(origin) -> int:
    """``origin`` as a lap index; a bool, a non-integral or a negative value
    is refused rather than rounded into some other lap."""
    integral = isinstance(origin, numbers.Integral) or (
        isinstance(origin, numbers.Real) and float(origin).is_integer()
    )
    if isinstance(origin, (bool, np.bool_)) or not integral or origin < 0:
        raise ValueError(f"origin must be a non-negative integer lap, got {origin!r}")
    return int(origin)


@dataclass
class NamedForecastRequest:
    """A :class:`ForecastRequest` addressed to a named served model.

    The :class:`~repro.serving.service.ForecastService` routes batches of
    these: requests naming the same ``(model, precision)`` pair are grouped
    and dispatched to that replica's fleet engine in one submit, so a
    mixed-model batch costs one engine pass per distinct replica rather
    than one per request.
    """

    model: str
    request: ForecastRequest
    #: compute tier the forecast runs on: ``"float64"`` (the exact
    #: reference, default), ``"float32"`` or ``"int8"`` — see
    #: :mod:`repro.nn.precision`
    precision: str = "float64"
    #: optional server-side time budget (a ``repro.serving.resilience.Deadline``)
    #: the gateway attaches from the envelope's ``deadline_ms``; checked by
    #: the submit path so queued work past budget is shed, not executed
    deadline: Optional[object] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.model = str(self.model)
        if not isinstance(self.request, ForecastRequest):
            raise TypeError(
                f"request must be a ForecastRequest, got {type(self.request).__name__}"
            )
        # validated eagerly so a bad tier fails at construction, not inside
        # an engine pass half-way through a batch
        from ..nn.precision import normalize_precision

        self.precision = normalize_precision(self.precision)


def spawn_request_rngs(root: np.random.Generator, n: int) -> List[np.random.Generator]:
    """Independent child streams for ``n`` requests (one stream per request).

    Using per-request streams makes forecasts independent of batching and
    submission order: the fleet-batched path and a per-car loop consume the
    exact same random numbers for each request.
    """
    return list(root.spawn(n)) if n else []


def fold_forecasts(groups: Sequence[Sequence], results: Sequence) -> List[np.ndarray]:
    """One sample array per forecast: ``groups`` holds each forecast's
    requests, ``results`` their concatenation's outcomes in order; a
    forecast's plans stack on the sample axis."""
    bounds = np.cumsum([0] + [len(group) for group in groups])
    return [
        results[a] if b == a + 1 else np.vstack(results[a:b])
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]
