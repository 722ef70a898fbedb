"""Common forecaster interface and forecast containers.

Every model in this package — the naive CurRank baseline, the statistical
and machine-learning regressors, DeepAR and the RankNet variants — exposes
the same two operations so the evaluation harness (TaskA, TaskB) and the
benchmark suite can treat them uniformly:

* ``fit(train_series, val_series)`` — learn from a list of
  :class:`repro.data.CarFeatureSeries`;
* ``forecast(series, origin, horizon, n_samples)`` — produce a Monte-Carlo
  sample matrix of the car's rank for the ``horizon`` laps following lap
  index ``origin`` of ``series``.

Point forecasts are taken as the median of the samples (as in the paper,
which draws 100 samples and sorts them); deterministic models simply return
identical samples.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.features import CarFeatureSeries
from ..nn.checkpoint import config_hash as _config_hash

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "DEFAULT_FIELD_SIZE",
    "ModelArtifact",
    "ProbabilisticForecast",
    "RankForecaster",
    "clip_rank",
]

#: bump when the artifact layout of any forecaster family changes.
#: v2 added the low-precision payloads: ``state["precision"]`` plus, for
#: ``int8``, per-weight ``<name>::q`` / ``<name>::scale`` array pairs
#: (per-output-channel symmetric, see :mod:`repro.nn.precision`).  Plain
#: float64 artifacts still write schema version 1 — their layout is
#: unchanged, so older builds keep loading them; only artifacts actually
#: carrying a low-precision payload are stamped v2 and refused by stores
#: that predate the scheme.
ARTIFACT_SCHEMA_VERSION = 2

#: Indy500 field size (the paper's races start 33 cars).  The single shared
#: fallback for every rank clip in the code base — the evaluators and the
#: strategy optimizer import this instead of hard-coding 33, and prefer the
#: field size observed in the data (``RankForecaster.field_size``, recorded
#: at fit time) when one is available.
DEFAULT_FIELD_SIZE = 33


def clip_rank(values: np.ndarray, num_cars: int = DEFAULT_FIELD_SIZE) -> np.ndarray:
    """Clip forecasts into the physically valid rank range ``[1, num_cars]``."""
    return np.clip(values, 1.0, float(num_cars))


def _dequantized_f64(q: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Float64 view of an int8 payload, for exact staleness comparison."""
    from ..nn.precision import dequantize_int8

    return np.asarray(dequantize_int8(q, scale), dtype=np.float64)


@dataclass
class ModelArtifact:
    """Durable snapshot of a fitted forecaster.

    Every forecaster family serialises to the same three-part layout:

    * ``config`` — JSON-safe constructor arguments, sufficient to rebuild an
      *unfitted* twin of the model;
    * ``state`` — JSON-safe fitted metadata: ``field_size``, fitted flags,
      scaler statistics that are scalars, and the RNG stream snapshots that
      make a restored model's forecasts *byte-identical* to the original's;
    * ``arrays`` — the dense fitted state (network weights, tree tables,
      support vectors), keyed by slash-namespaced names.

    Artifacts are plain data: writing/reading them to disk is the job of
    :mod:`repro.artifacts`, which stores them through the shared npz+meta
    checkpoint format of :mod:`repro.nn.checkpoint`.
    """

    family: str
    config: dict
    state: dict
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    schema_version: int = ARTIFACT_SCHEMA_VERSION

    def config_hash(self) -> str:
        """Stable short hash of the constructor configuration.

        Delegates to :func:`repro.nn.checkpoint.config_hash`, the same
        convention the artifact store uses for its cache keys, so manifest
        records and ``--artifacts-dir`` keys can never drift apart.
        """
        return _config_hash(self.config)


@dataclass
class ProbabilisticForecast:
    """Monte-Carlo forecast of one car's rank over ``horizon`` future laps."""

    samples: np.ndarray  # (n_samples, horizon)
    origin: int
    race_id: str = ""
    car_id: int = -1

    def __post_init__(self) -> None:
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))

    @property
    def horizon(self) -> int:
        return int(self.samples.shape[1])

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[0])

    def median(self) -> np.ndarray:
        return np.median(self.samples, axis=0)

    def mean(self) -> np.ndarray:
        return self.samples.mean(axis=0)

    def quantile(self, q: float) -> np.ndarray:
        return np.quantile(self.samples, q, axis=0)

    def point(self) -> np.ndarray:
        """Point forecast used for MAE / accuracy metrics (the median)."""
        return self.median()


class RankForecaster(abc.ABC):
    """Abstract base class of all rank-position forecasters."""

    #: human-readable name used in result tables
    name: str = "forecaster"
    #: whether the model outputs a genuine predictive distribution
    supports_uncertainty: bool = False
    #: whether the model uses (or predicts) the race-status covariates
    uses_race_status: bool = False
    #: field size observed in the training data (``None`` until a fit
    #: records one); consumers fall back to :data:`DEFAULT_FIELD_SIZE`
    field_size: Optional[int] = None
    #: weight format of the artifact this instance was loaded from
    #: (``"float64"`` for freshly-fit models; see :meth:`from_artifact`)
    loaded_precision: str = "float64"

    def record_field_size(self, train_series: Sequence[CarFeatureSeries]) -> None:
        """Remember the largest rank seen at fit time as the field size."""
        worst = max(
            (float(np.max(s.rank)) for s in train_series if len(s)), default=0.0
        )
        self.field_size = int(np.ceil(worst)) if worst > 0 else None

    @abc.abstractmethod
    def fit(
        self,
        train_series: Sequence[CarFeatureSeries],
        val_series: Optional[Sequence[CarFeatureSeries]] = None,
    ) -> "RankForecaster":
        """Train the model on a collection of per-car series."""

    @abc.abstractmethod
    def forecast(
        self,
        series: CarFeatureSeries,
        origin: int,
        horizon: int,
        n_samples: int = 100,
    ) -> ProbabilisticForecast:
        """Forecast ``horizon`` laps after lap index ``origin`` of ``series``."""

    # ------------------------------------------------------------------
    def forecast_fleet(
        self,
        tasks: Sequence[Tuple[CarFeatureSeries, int, int]],
        n_samples: int = 100,
    ) -> List[ProbabilisticForecast]:
        """Forecast many ``(series, origin, horizon)`` tasks in one call.

        The evaluation loops route through this entry point.  The default
        implementation simply loops :meth:`forecast`; the deep forecasters
        override it to dispatch the whole fleet to the batched inference
        engine (:class:`repro.serving.FleetForecaster`), which is an order
        of magnitude faster for rolling-origin workloads.
        """
        return [
            self.forecast(series, int(origin), int(horizon), n_samples=n_samples)
            for series, origin, horizon in tasks
        ]

    # ------------------------------------------------------------------
    # artifact protocol
    # ------------------------------------------------------------------
    def _artifact_config(self) -> dict:
        """JSON-safe constructor arguments rebuilding an unfitted twin."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the artifact protocol"
        )

    def _artifact_state(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Fitted state as ``(json_safe_meta, named_arrays)``."""
        return {}, {}

    def _load_artifact_state(self, state: dict, arrays: Dict[str, np.ndarray]) -> None:
        """Restore the fitted state produced by :meth:`_artifact_state`."""

    @classmethod
    def _config_from_artifact(cls, config: dict) -> dict:
        """Hook converting JSON config values back to constructor types."""
        return dict(config)

    def to_artifact(self, precision: str = "float64") -> ModelArtifact:
        """Snapshot this (fitted) forecaster as a :class:`ModelArtifact`.

        The snapshot captures everything forecasting depends on — fitted
        parameters, scalers, feature configuration, ``field_size`` and the
        forecast RNG stream — so ``from_artifact(to_artifact(m))`` yields a
        model whose ``forecast`` output is byte-identical to ``m``'s.

        ``precision`` selects the stored weight format (see
        :mod:`repro.nn.precision`): ``"float64"`` writes the unchanged v1
        layout; ``"float32"`` casts the floating weight arrays down;
        ``"int8"`` stores the symmetric per-output-channel quantisation
        payload (``<name>::q`` int8 codes + ``<name>::scale`` float32
        scales).  A forecaster that was itself loaded from an int8
        artifact re-emits that payload bit-exactly (re-quantising the
        dequantised weights is not guaranteed to reproduce the original
        codes); the cached payload is dropped automatically whenever the
        weights no longer match it (re-fit, fine-tune).
        """
        from ..nn.precision import normalize_precision, quantize_int8

        precision = normalize_precision(precision)
        state, arrays = self._artifact_state()
        state = dict(state)
        state["field_size"] = self.field_size
        if precision == "float64":
            # unchanged layout — stamped v1 so pre-precision builds and
            # stores keep loading the reference artifacts byte-identically
            return ModelArtifact(
                family=type(self).__name__,
                config=self._artifact_config(),
                state=state,
                arrays=arrays,
                schema_version=1,
            )
        state["precision"] = precision
        encoded: Dict[str, np.ndarray] = {}
        cached = getattr(self, "_int8_payload", None)
        for name, array in arrays.items():
            array = np.asarray(array)
            if not np.issubdtype(array.dtype, np.floating):
                encoded[name] = array
                continue
            if precision == "float32":
                encoded[name] = array.astype(np.float32)
                continue
            pair = None
            if cached is not None and name in cached:
                q, scale = cached[name]
                if q.shape == array.shape and np.array_equal(
                    _dequantized_f64(q, scale), np.asarray(array, dtype=np.float64)
                ):
                    pair = (q, scale)
            if pair is None:
                pair = quantize_int8(array)
            encoded[name + "::q"], encoded[name + "::scale"] = pair
        return ModelArtifact(
            family=type(self).__name__,
            config=self._artifact_config(),
            state=state,
            arrays=encoded,
            schema_version=ARTIFACT_SCHEMA_VERSION,
        )

    @classmethod
    def from_artifact(cls, artifact: ModelArtifact) -> "RankForecaster":
        """Rebuild a fitted forecaster from a :class:`ModelArtifact`.

        Low-precision artifacts (schema v2, ``state["precision"]``) load
        into the ordinary float64 parameter storage: float32 weights are
        exactly representable there, and int8 payloads are dequantised
        once (``q * scale`` in float32) on the way in.  The decoded
        payload is kept on the instance so ``to_artifact("int8")`` round
        trips bit-exactly, and the loaded tier is recorded as
        ``loaded_precision``.
        """
        from ..nn.precision import PRECISIONS, dequantize_int8

        if artifact.family != cls.__name__:
            raise ValueError(
                f"artifact family {artifact.family!r} does not match {cls.__name__!r}"
            )
        if artifact.schema_version > ARTIFACT_SCHEMA_VERSION:
            raise ValueError(
                f"artifact schema version {artifact.schema_version} is newer "
                f"than supported version {ARTIFACT_SCHEMA_VERSION}"
            )
        model = cls(**cls._config_from_artifact(artifact.config))
        state = dict(artifact.state)
        size = state.pop("field_size", None)
        model.field_size = None if size is None else int(size)
        precision = state.pop("precision", "float64")
        if precision not in PRECISIONS:
            raise ValueError(
                f"artifact carries unknown precision {precision!r}; "
                f"this build reads {', '.join(PRECISIONS)}"
            )
        arrays = artifact.arrays
        payload: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        if precision == "int8":
            decoded: Dict[str, np.ndarray] = {}
            for key, value in arrays.items():
                if key.endswith("::q"):
                    name = key[: -len("::q")]
                    scale_key = name + "::scale"
                    if scale_key not in arrays:
                        raise ValueError(
                            f"int8 artifact array {name!r} has codes but no "
                            f"{scale_key!r} scales"
                        )
                    q = np.asarray(value, dtype=np.int8)
                    scale = np.asarray(arrays[scale_key], dtype=np.float32)
                    decoded[name] = dequantize_int8(q, scale)
                    payload[name] = (q, scale)
                elif not key.endswith("::scale"):
                    decoded[key] = value
            arrays = decoded
        model._load_artifact_state(state, arrays)
        if payload:
            model._int8_payload = payload
        model.loaded_precision = precision
        return model

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(name={self.name!r})"
