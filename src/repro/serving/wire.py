"""The ``v1`` JSON wire protocol of the forecast serving API.

Everything that crosses the process boundary — forecast requests and
results, the model catalog, strategy-sweep requests and outcomes, live
session laps, and error reports — has a canonical JSON form defined here,
with ``to_wire``/``from_wire`` round trips that are *byte-exact*:

* numpy arrays travel base64-encoded with their dtype and shape
  (:func:`encode_array`/:func:`decode_array`), so a float64 forecast
  decoded on the other side is bitwise equal to the one encoded;
* per-request RNG streams travel explicitly (:func:`rng_to_wire` /
  :func:`rng_from_wire`) either as an integer seed or as a full
  bit-generator state snapshot (the same JSON form the checkpoint layer
  uses), so a request reproduces the same Monte-Carlo draws regardless of
  transport, batching, or which process runs it;
* every top-level document carries ``schema_version`` and a ``kind`` tag,
  guarded like the artifacts package: documents written by a *newer*
  schema are refused (:data:`WIRE_SCHEMA_VERSION`), malformed documents
  raise :class:`WireError` with a structured code instead of a bare
  ``KeyError``.

Errors themselves are wire documents (:func:`error_to_wire`), so a client
always receives machine-readable ``{code, message, detail}`` envelopes —
never an HTML traceback.
"""

from __future__ import annotations

import base64
import binascii
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..data.features import CarFeatureSeries
from ..nn.checkpoint import rng_from_state, rng_state
from ..nn.precision import DEFAULT_PRECISION, PRECISIONS
from .requests import ForecastRequest, NamedForecastRequest

__all__ = [
    "WIRE_SCHEMA_VERSION",
    "WireError",
    "check_envelope",
    "decode_array",
    "emitted_from_wire",
    "emitted_to_wire",
    "encode_array",
    "envelope",
    "error_to_wire",
    "forecast_batch_from_wire",
    "forecast_batch_to_wire",
    "lap_record_to_wire",
    "named_request_from_wire",
    "named_request_to_wire",
    "precision_from_wire",
    "raise_for_error",
    "request_from_wire",
    "request_to_wire",
    "results_from_wire",
    "results_to_wire",
    "resume_from_wire",
    "rng_from_wire",
    "rng_to_wire",
    "scenario_race_from_wire",
    "scenario_race_to_wire",
    "scenario_request_from_wire",
    "scenario_request_to_wire",
    "scenario_start_to_wire",
    "scenario_summary_from_wire",
    "scenario_summary_to_wire",
    "series_from_wire",
    "series_to_wire",
    "sweep_points_from_wire",
    "sweep_points_to_wire",
    "sweep_request_from_wire",
    "sweep_request_to_wire",
]

#: Highest wire schema revision this build reads and writes.
#: v2 added the ``/v1/scenarios`` documents (scenario-request and the
#: streamed scenario-start / scenario-race / scenario-summary events).
#: v3 added the resilience fields: optional ``idempotency_key`` and
#: ``deadline_ms`` on forecast-batch / sweep-request / session-lap
#: envelopes, ``resume_from`` on scenario-request, and the structured
#: ``overloaded`` / ``deadline_exceeded`` / ``circuit_open`` error codes
#: (429/504/503) with ``detail.retry_after_ms``.
#: v4 added the supervised worker pool: the ``worker_restarting`` error
#: code (503, ``detail.retry_after_ms``) raised while a crashed model
#: replica is being respawned, and the per-worker health fields
#: (``workers``, ``worker_pool``, ``uptime_s``) on ``/v1/health``.
#: v5 added the low-precision compute tier: an optional ``precision``
#: field (``"float64"`` | ``"float32"`` | ``"int8"``, absent means
#: ``"float64"``) on named forecast requests, sweep requests and
#: session-open documents, and the ``unsupported_precision`` error code
#: (400) for any other value.  ``"float64"`` traffic stays byte-identical
#: to v4; the lower tiers are error-bounded (see ``repro.nn.precision``).
#: v6 added champion/challenger aliases for the continuous-learning loop:
#: the ``/v1/models/aliases`` routes (list, resolve, promote, rollback)
#: with their ``alias-list`` / ``alias-resolved`` / ``alias-promote`` /
#: ``alias-promoted`` / ``alias-rolled-back`` envelope kinds, alias
#: annotations on the ``/v1/models`` catalog, and the structured
#: ``unknown_alias`` (404) / ``model_aliased`` (409) / ``invalid_alias``
#: (400) error codes.  Forecast, sweep and session documents may name an
#: alias wherever they name a model; the gateway resolves it to the
#: current target artifact at submit time.
WIRE_SCHEMA_VERSION = 6


class WireError(ValueError):
    """A structured wire-protocol failure.

    ``code`` is a stable machine-readable identifier (``malformed_request``,
    ``unsupported_schema``, ``unknown_model``, ...), ``status`` the HTTP
    status the gateway maps it to, and ``detail`` an optional JSON-safe
    payload with specifics.
    """

    def __init__(
        self,
        code: str,
        message: str,
        status: int = 400,
        detail: Optional[dict] = None,
    ) -> None:
        super().__init__(message)
        self.code = str(code)
        self.status = int(status)
        self.detail = detail


# ----------------------------------------------------------------------
# envelopes and schema guards
# ----------------------------------------------------------------------
def envelope(kind: str, **payload) -> dict:
    """A versioned wire document: schema version + kind tag + payload."""
    document = {"schema_version": WIRE_SCHEMA_VERSION, "kind": str(kind)}
    document.update(payload)
    return document


def check_envelope(document, kind: Optional[str] = None) -> dict:
    """Validate a wire document's schema version (and optionally its kind).

    Mirrors the artifact store's guard: a document stamped by a *newer*
    schema is refused with ``unsupported_schema`` rather than silently
    misread; a missing or non-integer version is ``malformed_request``.
    """
    if not isinstance(document, dict):
        raise WireError(
            "malformed_request",
            f"expected a JSON object, got {type(document).__name__}",
        )
    version = document.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise WireError("malformed_request", "document carries no integer schema_version")
    if version > WIRE_SCHEMA_VERSION:
        raise WireError(
            "unsupported_schema",
            f"document has wire schema version {version}; this build reads "
            f"<= {WIRE_SCHEMA_VERSION}",
        )
    if kind is not None and document.get("kind") != kind:
        raise WireError(
            "malformed_request",
            f"expected a {kind!r} document, got kind={document.get('kind')!r}",
        )
    return document


def name_from_wire(document, kind: str, field: str = "model") -> str:
    """The model name in a ``kind`` document's ``field``; checks nothing else."""
    name = check_envelope(document, kind=kind).get(field)
    if not isinstance(name, str) or not name:
        raise WireError("malformed_request", f"{kind} needs a model name in {field!r}")
    return name


def _require(document: dict, field: str, kind: str):
    if field not in document:
        raise WireError("malformed_request", f"{kind} document is missing {field!r}")
    return document[field]


# ----------------------------------------------------------------------
# arrays
# ----------------------------------------------------------------------
def encode_array(array) -> dict:
    """Base64 + dtype + shape encoding of one numpy array.

    The bytes are taken from a C-contiguous view, so non-contiguous inputs
    (slices, transposes) encode to the same payload as their contiguous
    copies and round-trip bitwise.
    """
    array = np.ascontiguousarray(array)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_array(spec) -> np.ndarray:
    """Rebuild the array encoded by :func:`encode_array` (bitwise)."""
    if not isinstance(spec, dict):
        raise WireError("malformed_request", "array spec must be a JSON object")
    try:
        dtype = np.dtype(spec["dtype"])
        shape = tuple(int(n) for n in spec["shape"])
        raw = base64.b64decode(spec["data"].encode("ascii"), validate=True)
    except (KeyError, TypeError, ValueError, AttributeError, binascii.Error) as exc:
        raise WireError("malformed_request", f"malformed array spec: {exc}") from exc
    if dtype.hasobject:
        raise WireError("malformed_request", f"refusing object dtype {dtype.str!r}")
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if len(raw) != expected:
        raise WireError(
            "malformed_request",
            f"array payload is {len(raw)} bytes, shape/dtype require {expected}",
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


# ----------------------------------------------------------------------
# RNG streams
# ----------------------------------------------------------------------
def rng_to_wire(rng: Union[np.random.Generator, int, None]) -> Optional[dict]:
    """Explicit wire form of a request's RNG stream.

    An integer travels as ``{"seed": n}`` (the stream is
    ``np.random.default_rng(n)``); a live ``Generator`` travels as its full
    bit-generator state snapshot, so draws continue bit-exactly on the
    other side of the wire.
    """
    if rng is None:
        return None
    if isinstance(rng, (int, np.integer)):
        return {"seed": int(rng)}
    if isinstance(rng, np.random.Generator):
        return {"state": rng_state(rng)}
    raise WireError("malformed_request", f"cannot encode RNG of type {type(rng).__name__}")


def rng_from_wire(spec, required: bool = False) -> Optional[np.random.Generator]:
    """Rebuild the RNG stream encoded by :func:`rng_to_wire`."""
    if spec is None:
        if required:
            raise WireError(
                "malformed_request",
                "request carries no RNG stream; per-request seeds are required "
                "so results are reproducible regardless of transport or batching",
            )
        return None
    if not isinstance(spec, dict):
        raise WireError("malformed_request", "rng spec must be a JSON object")
    if "state" in spec:
        try:
            return rng_from_state(spec["state"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError("malformed_request", f"malformed rng state: {exc}") from exc
    if "seed" in spec:
        seed = spec["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise WireError("malformed_request", "rng seed must be an integer")
        return np.random.default_rng(seed)
    raise WireError("malformed_request", "rng spec needs a 'seed' or a 'state' field")


# ----------------------------------------------------------------------
# request keys (tuples survive the list round trip)
# ----------------------------------------------------------------------
def _encode_key(key: Optional[Hashable]):
    if key is None or isinstance(key, (str, bool)):
        return key
    if isinstance(key, (int, np.integer)):
        return int(key)
    if isinstance(key, (float, np.floating)):
        return float(key)
    if isinstance(key, tuple):
        return [_encode_key(item) for item in key]
    raise WireError("malformed_request", f"cannot encode request key of type {type(key).__name__}")


def _decode_key(spec) -> Optional[Hashable]:
    if isinstance(spec, list):
        return tuple(_decode_key(item) for item in spec)
    return spec


# ----------------------------------------------------------------------
# forecast requests / results
# ----------------------------------------------------------------------
def request_to_wire(request: ForecastRequest) -> dict:
    """Wire form of one :class:`ForecastRequest` (RNG stream included)."""
    return {
        "history_target": encode_array(request.target),
        "history_covariates": encode_array(request.history_covariates),
        "future_covariates": encode_array(request.future_covariates),
        "n_samples": int(request.n_samples),
        "rng": rng_to_wire(request.rng),
        "key": _encode_key(request.key),
        "origin": None if request.origin is None else int(request.origin),
    }


def request_from_wire(document, require_rng: bool = False) -> ForecastRequest:
    """Rebuild the request encoded by :func:`request_to_wire`.

    With ``require_rng=True`` (the gateway's setting) a request without an
    explicit RNG stream is refused — a shared model-level generator would
    make the result depend on how the scheduler batches the wire traffic.
    """
    if not isinstance(document, dict):
        raise WireError("malformed_request", "forecast request must be a JSON object")
    kind = "forecast request"
    try:
        return ForecastRequest(
            history_target=decode_array(_require(document, "history_target", kind)),
            history_covariates=decode_array(_require(document, "history_covariates", kind)),
            future_covariates=decode_array(_require(document, "future_covariates", kind)),
            n_samples=_require(document, "n_samples", kind),
            rng=rng_from_wire(document.get("rng"), required=require_rng),
            key=_decode_key(document.get("key")),
            origin=document.get("origin"),
        )
    except WireError:
        raise
    except (TypeError, ValueError) as exc:
        raise WireError("malformed_request", f"invalid forecast request: {exc}") from exc


def precision_from_wire(document, kind: str = "request") -> str:
    """Validate a wire document's optional ``precision`` field (v5).

    Absent (or ``null``) means the exact float64 reference tier — which is
    also why v4 documents keep decoding unchanged.  Any value outside
    :data:`repro.nn.precision.PRECISIONS` is refused with the structured
    ``unsupported_precision`` code rather than a bare ``ValueError`` deep
    inside an engine pass.
    """
    value = document.get("precision") if isinstance(document, dict) else None
    if value is None:
        return DEFAULT_PRECISION
    if not isinstance(value, str) or value not in PRECISIONS:
        raise WireError(
            "unsupported_precision",
            f"{kind} names precision {value!r}; this build serves "
            f"{', '.join(PRECISIONS)}",
            status=400,
            detail={"precision": value if isinstance(value, str) else str(value),
                    "supported": list(PRECISIONS)},
        )
    return value


def named_request_to_wire(named: NamedForecastRequest) -> dict:
    return {
        "model": named.model,
        "request": request_to_wire(named.request),
        "precision": named.precision,
    }


def named_request_from_wire(document, require_rng: bool = False) -> NamedForecastRequest:
    if not isinstance(document, dict):
        raise WireError("malformed_request", "named request must be a JSON object")
    model = _require(document, "model", "named request")
    if not isinstance(model, str) or not model:
        raise WireError("malformed_request", "named request 'model' must be a non-empty string")
    return NamedForecastRequest(
        model=model,
        request=request_from_wire(_require(document, "request", "named request"), require_rng),
        precision=precision_from_wire(document, kind="named request"),
    )


def lap_record_to_wire(record) -> dict:
    """Encode one live lap record for a ``session-lap`` document.

    Accepts either an already-JSON mapping (passed through untouched so a
    relayed document stays byte-identical) or a ``LapRecord``-style object
    from the data layer.  The gateway applies the same encoding before a
    lap crosses a worker pipe, so in-process callers may hand over raw
    ``LapRecord`` objects in worker mode too.
    """
    if isinstance(record, dict):
        return record
    return {
        "car_id": int(record.car_id),
        "rank": int(record.rank),
        "lap_time": float(record.lap_time),
        "time_behind_leader": float(record.time_behind_leader),
        "pit": bool(record.is_pit),
        "caution": bool(record.is_caution),
    }


def emitted_to_wire(emitted) -> List[dict]:
    """Encode session forecasts (``[(origin, {car_id: samples})]``), the
    ``results`` of a ``session-lap-results``/``session-closed`` document."""
    return [
        {
            "origin": int(origin),
            "forecasts": [
                {"car_id": int(car_id), "samples": encode_array(samples)}
                for car_id, samples in forecasts.items()
            ],
        }
        for origin, forecasts in emitted
    ]


def emitted_from_wire(items: List[dict]) -> List[Tuple[int, Dict[int, np.ndarray]]]:
    """Decode :func:`emitted_to_wire` back into session-forecast structure."""
    return [
        (
            int(item["origin"]),
            {
                int(entry["car_id"]): decode_array(entry["samples"])
                for entry in item["forecasts"]
            },
        )
        for item in items
    ]


def forecast_batch_to_wire(
    requests: Sequence[NamedForecastRequest],
    idempotency_key: Optional[str] = None,
    deadline_ms: Optional[float] = None,
) -> dict:
    """The ``POST /v1/forecast`` body: a batch of named requests.

    ``idempotency_key`` lets the gateway dedupe a retried POST (the stored
    response is replayed byte-identically); ``deadline_ms`` is the
    *relative* time budget the server may spend before shedding the work
    with ``deadline_exceeded`` — relative because client and server clocks
    are unrelated.
    """
    document = envelope(
        "forecast-batch", requests=[named_request_to_wire(named) for named in requests]
    )
    if idempotency_key is not None:
        document["idempotency_key"] = str(idempotency_key)
    if deadline_ms is not None:
        document["deadline_ms"] = float(deadline_ms)
    return document


def forecast_batch_from_wire(document, require_rng: bool = True) -> List[NamedForecastRequest]:
    check_envelope(document, kind="forecast-batch")
    requests = _require(document, "requests", "forecast-batch")
    if not isinstance(requests, list):
        raise WireError("malformed_request", "'requests' must be a JSON array")
    return [named_request_from_wire(item, require_rng=require_rng) for item in requests]


def results_to_wire(results: Sequence) -> dict:
    """The ``/v1/forecast`` response: one entry per request, in order.

    Each entry is either ``{"samples": <array>}`` or ``{"error": {...}}``,
    so one failed request does not discard its batch-mates' forecasts.
    """
    entries = []
    for result in results:
        if isinstance(result, BaseException):
            entries.append({"error": _error_body(result)})
        else:
            entries.append({"samples": encode_array(result)})
    return envelope("forecast-results", results=entries)


def results_from_wire(document) -> List[Union[np.ndarray, WireError]]:
    """Decode forecast results; failed entries come back as WireError values."""
    check_envelope(document, kind="forecast-results")
    entries = _require(document, "results", "forecast-results")
    decoded: List[Union[np.ndarray, WireError]] = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise WireError("malformed_request", "result entry must be a JSON object")
        if "error" in entry:
            body = entry["error"]
            decoded.append(
                WireError(
                    body.get("code", "request_failed"),
                    body.get("message", "request failed"),
                    status=int(body.get("status", 400)),
                    detail=body.get("detail"),
                )
            )
        else:
            decoded.append(decode_array(_require(entry, "samples", "result entry")))
    return decoded


# ----------------------------------------------------------------------
# feature series (strategy sweeps ship the car's series to the server)
# ----------------------------------------------------------------------
def series_to_wire(series: CarFeatureSeries) -> dict:
    return {
        "race_id": series.race_id,
        "event": series.event,
        "year": int(series.year),
        "car_id": int(series.car_id),
        "laps": encode_array(series.laps),
        "rank": encode_array(series.rank),
        "lap_time": encode_array(series.lap_time),
        "time_behind_leader": encode_array(series.time_behind_leader),
        "covariates": encode_array(series.covariates),
    }


def series_from_wire(document) -> CarFeatureSeries:
    if not isinstance(document, dict):
        raise WireError("malformed_request", "feature series must be a JSON object")
    kind = "feature series"
    try:
        return CarFeatureSeries(
            race_id=str(_require(document, "race_id", kind)),
            event=str(_require(document, "event", kind)),
            year=int(_require(document, "year", kind)),
            car_id=int(_require(document, "car_id", kind)),
            laps=decode_array(_require(document, "laps", kind)),
            rank=decode_array(_require(document, "rank", kind)),
            lap_time=decode_array(_require(document, "lap_time", kind)),
            time_behind_leader=decode_array(_require(document, "time_behind_leader", kind)),
            covariates=decode_array(_require(document, "covariates", kind)),
        )
    except WireError:
        raise
    except (TypeError, ValueError) as exc:
        raise WireError("malformed_request", f"invalid feature series: {exc}") from exc


# ----------------------------------------------------------------------
# strategy sweeps
# ----------------------------------------------------------------------
def sweep_request_to_wire(
    model: str,
    series: CarFeatureSeries,
    origins: Sequence[int],
    horizon: int,
    earliest: int = 1,
    latest: Optional[int] = None,
    step: int = 1,
    mode: str = "carry",
    n_samples: int = 100,
    field_size: Optional[int] = None,
    rng: Union[np.random.Generator, int, None] = None,
    precision: str = DEFAULT_PRECISION,
    idempotency_key: Optional[str] = None,
    deadline_ms: Optional[float] = None,
) -> dict:
    """The ``POST /v1/strategy/sweep`` body."""
    document = envelope(
        "sweep-request",
        model=str(model),
        series=series_to_wire(series),
        origins=[int(o) for o in origins],
        horizon=int(horizon),
        earliest=int(earliest),
        latest=None if latest is None else int(latest),
        step=int(step),
        mode=str(mode),
        n_samples=int(n_samples),
        field_size=None if field_size is None else int(field_size),
        rng=rng_to_wire(rng),
        precision=str(precision),
    )
    if idempotency_key is not None:
        document["idempotency_key"] = str(idempotency_key)
    if deadline_ms is not None:
        document["deadline_ms"] = float(deadline_ms)
    return document


def sweep_request_from_wire(document) -> dict:
    """Decode a sweep request into keyword arguments for the gateway."""
    check_envelope(document, kind="sweep-request")
    kind = "sweep-request"
    origins = _require(document, "origins", kind)
    if not isinstance(origins, list) or not all(
        isinstance(o, int) and not isinstance(o, bool) for o in origins
    ):
        raise WireError("malformed_request", "'origins' must be an array of integers")
    try:
        return {
            "model": str(_require(document, "model", kind)),
            "series": series_from_wire(_require(document, "series", kind)),
            "origins": [int(o) for o in origins],
            "horizon": int(_require(document, "horizon", kind)),
            "earliest": int(document.get("earliest", 1)),
            "latest": None if document.get("latest") is None else int(document["latest"]),
            "step": int(document.get("step", 1)),
            "mode": str(document.get("mode", "carry")),
            "n_samples": int(document.get("n_samples", 100)),
            "field_size": (
                None if document.get("field_size") is None else int(document["field_size"])
            ),
            "rng": rng_from_wire(document.get("rng"), required=True),
            "precision": precision_from_wire(document, kind="sweep request"),
        }
    except WireError:
        raise
    except (TypeError, ValueError) as exc:
        raise WireError("malformed_request", f"invalid sweep request: {exc}") from exc


#: float fields of one wire strategy outcome, in canonical order
_OUTCOME_FIELDS = (
    "expected_final_rank",
    "median_final_rank",
    "p_gain",
    "p_lose",
    "rank_samples_std",
)


def sweep_points_to_wire(points: Sequence) -> dict:
    """Wire form of ``PitStrategyOptimizer.sweep`` results.

    Plain JSON floats round-trip exactly (shortest-repr float encoding),
    so the decoded outcomes are bitwise equal to the in-process sweep.
    """
    wired = []
    for point in points:
        wired.append(
            {
                "origin": int(point.origin),
                "current_rank": float(point.current_rank),
                "outcomes": [
                    {
                        "pit_in_laps": int(outcome.pit_in_laps),
                        **{name: float(getattr(outcome, name)) for name in _OUTCOME_FIELDS},
                    }
                    for outcome in point.outcomes
                ],
            }
        )
    return envelope("sweep-results", points=wired)


def sweep_points_from_wire(document) -> List:
    """Decode sweep results back into ``StrategySweepPoint`` objects."""
    # imported here: repro.strategy pulls in the deep-model stack, which the
    # wire module must not force on lightweight clients
    from ..strategy.optimizer import StrategyOutcome, StrategySweepPoint

    check_envelope(document, kind="sweep-results")
    points = []
    for item in _require(document, "points", "sweep-results"):
        try:
            outcomes = [
                StrategyOutcome(
                    pit_in_laps=int(entry["pit_in_laps"]),
                    **{name: float(entry[name]) for name in _OUTCOME_FIELDS},
                )
                for entry in item["outcomes"]
            ]
            points.append(
                StrategySweepPoint(
                    origin=int(item["origin"]),
                    current_rank=float(item["current_rank"]),
                    outcomes=outcomes,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError("malformed_request", f"invalid sweep point: {exc}") from exc
    return points


# ----------------------------------------------------------------------
# what-if scenarios (the streamed /v1/scenarios route)
# ----------------------------------------------------------------------
def scenario_request_to_wire(
    spec_document: dict, seed: int, resume_from: int = 0
) -> dict:
    """The ``POST /v1/scenarios`` body: a scenario spec plus its base seed.

    Unlike forecast requests, scenario RNG transport is *seed-only*: every
    per-race and per-forecast stream is derived from this one integer with
    the process-stable construction of
    :func:`repro.scenarios.spec.derive_seed`, which is what makes a sweep
    bitwise reproducible from a single number.

    ``resume_from`` asks the gateway to suppress the first ``resume_from``
    stream events: a client whose connection died mid-stream resubmits the
    same spec and seed with the count of events it already holds, and —
    because the run is bitwise deterministic from the seed — the resumed
    tail continues exactly where the torn stream stopped.
    """
    if not isinstance(spec_document, dict):
        raise WireError("malformed_request", "scenario spec must be a JSON object")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise WireError("malformed_request", "scenario seed must be an integer")
    document = envelope(
        "scenario-request", spec=dict(spec_document), rng={"seed": int(seed)}
    )
    if resume_from:
        document["resume_from"] = int(resume_from)
    return document


def scenario_request_from_wire(document):
    """Decode and validate a scenario request: ``(ScenarioSpec, seed)``."""
    # imported here: the scenarios package pulls in the simulation stack,
    # which lightweight wire consumers must not pay for
    from ..scenarios.spec import ScenarioError, parse_scenario

    check_envelope(document, kind="scenario-request")
    rng_spec = _require(document, "rng", "scenario-request")
    if not isinstance(rng_spec, dict) or "seed" not in rng_spec:
        raise WireError(
            "malformed_request",
            "scenario requests carry {'seed': n} RNG transport only: every "
            "per-race stream is derived from that one seed",
        )
    seed = rng_spec["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise WireError("malformed_request", "scenario rng seed must be an integer")
    try:
        spec = parse_scenario(_require(document, "spec", "scenario-request"))
    except ScenarioError as exc:
        raise WireError("invalid_scenario", str(exc)) from exc
    return spec, seed


def resume_from_wire(document) -> int:
    """Validate a scenario request's optional ``resume_from`` event index."""
    resume_from = document.get("resume_from", 0) if isinstance(document, dict) else 0
    if not isinstance(resume_from, int) or isinstance(resume_from, bool) or resume_from < 0:
        raise WireError("malformed_request", "resume_from must be a non-negative integer")
    return resume_from


def scenario_start_to_wire(spec, seed: int, races: int) -> dict:
    """First streamed event: what is about to run and how long it is."""
    return envelope(
        "scenario-start",
        scenario=spec.name,
        scenario_kind=spec.kind,
        races=int(races),
        seed=int(seed),
    )


def scenario_race_to_wire(result, index: int, total: int) -> dict:
    """One streamed per-race event (``result`` is a ScenarioRaceResult)."""
    return envelope(
        "scenario-race", index=int(index), total=int(total), result=result.to_doc()
    )


def scenario_race_from_wire(document):
    from ..scenarios.engine import ScenarioRaceResult

    check_envelope(document, kind="scenario-race")
    try:
        return ScenarioRaceResult.from_doc(_require(document, "result", "scenario-race"))
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError("malformed_request", f"invalid scenario race result: {exc}") from exc


def scenario_summary_to_wire(summary) -> dict:
    """The closing streamed event (``summary`` is a ScenarioSummary)."""
    return envelope("scenario-summary", summary=summary.to_doc())


def scenario_summary_from_wire(document):
    from ..scenarios.engine import ScenarioSummary

    check_envelope(document, kind="scenario-summary")
    try:
        return ScenarioSummary.from_doc(_require(document, "summary", "scenario-summary"))
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError("malformed_request", f"invalid scenario summary: {exc}") from exc


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------
def _error_body(exc: BaseException) -> dict:
    if isinstance(exc, WireError):
        body: Dict[str, object] = {
            "code": exc.code,
            "message": str(exc),
            "status": exc.status,
        }
        if exc.detail is not None:
            body["detail"] = exc.detail
        return body
    return {"code": "internal_error", "message": str(exc), "status": 500}


def error_to_wire(exc: BaseException) -> Tuple[int, dict]:
    """``(http_status, document)`` form of any failure."""
    body = _error_body(exc)
    return int(body["status"]), envelope("error", error=body)


def raise_for_error(document) -> dict:
    """Raise the :class:`WireError` carried by an error document, else pass through."""
    if isinstance(document, dict) and document.get("kind") == "error":
        body = document.get("error", {})
        raise WireError(
            body.get("code", "request_failed"),
            body.get("message", "request failed"),
            status=int(body.get("status", 400)),
            detail=body.get("detail"),
        )
    return document
