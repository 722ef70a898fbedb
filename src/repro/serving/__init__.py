"""Fleet-batched Monte-Carlo inference engine.

The evaluation loops, the RankNet variants, the pit-strategy optimizer and
the live-race streamer all forecast *many* trajectories at once: every car
of the field, at every forecast origin, with up to a hundred Monte-Carlo
samples each.  The seed implementation forecast one car at a time and
replayed the entire lap history through the recurrent stack on every call.

This sub-package batches that workload:

* :class:`~repro.serving.requests.ForecastRequest` describes one
  (car, origin, horizon) forecast with its own RNG stream;
* :class:`~repro.serving.engine.FleetForecaster` flattens
  ``cars x n_samples`` into a single recurrent (or Transformer) batch
  dimension, deduplicates identical warm-ups, and — in ``carry`` mode —
  caches warm-up states per car so consecutive origins advance the state
  incrementally instead of re-running teacher forcing from lap 0;
* :class:`~repro.serving.cache.WarmupStateCache` holds those per-car
  recurrent states;
* :class:`~repro.serving.service.ForecastService` manages *many* served
  models at once: named artifacts from an
  :class:`~repro.artifacts.ArtifactStore` are loaded on demand (LRU-bounded
  by a capacity knob, with pin/touch accounting for long-lived consumers),
  each with its own fleet engine, and batches of
  :class:`~repro.serving.requests.NamedForecastRequest` are routed to the
  right engine per model;
* :mod:`~repro.serving.wire` defines the versioned JSON wire protocol
  (base64 arrays, explicit per-request RNG streams, structured error
  envelopes) and :mod:`~repro.serving.server` serves it over HTTP
  (``repro-serve``), with the
  :class:`~repro.serving.scheduler.MicroBatchScheduler` coalescing
  requests from concurrent connections into shared fleet passes and
  :class:`~repro.serving.sessions.RaceSession` holding live-race state
  server-side so timing-feed clients stream laps instead of histories;
* the gateway runs its engine work through one executor: a
  :class:`~repro.serving.executor.LocalExecutor` in-process, or a
  :class:`~repro.serving.supervisor.WorkerSupervisor` that shards it
  across supervised worker *processes* — one crash-tolerant replica per
  model, each a ``LocalExecutor`` behind a pipe, with heartbeat liveness,
  budgeted exponential-backoff restarts and journal-replay session
  failover (``workers: true`` in the server config; callers racing a
  restart see a structured
  :class:`~repro.serving.supervisor.WorkerRestartingError`);
* :class:`~repro.serving.client.ForecastClient` is the stdlib reference
  client of that API.

For the recurrent backbones (LSTM/GRU), a fleet-batched forecast is
byte-identical to the same forecasts computed one car at a time given
per-request RNG streams (``numpy.random.Generator.spawn``), because all
recurrent inference runs on the batch-size-invariant kernels of
:mod:`repro.nn.inference`.  The Transformer backend batches through the
model's own attention kernels, which are not chunk-stabilised, so its
results are reproducible per seed but agree across batch compositions
only to floating-point tolerance.
"""

from .cache import WarmupStateCache
from .client import ForecastClient, LiveSessionClient, ServerError
from .engine import FleetForecaster
from .requests import ForecastRequest, NamedForecastRequest, spawn_request_rngs
from .scheduler import MicroBatchScheduler
from .service import ForecastService, ModelHandle
from .sessions import RaceSession, SessionManager
from .supervisor import WorkerRestartingError, WorkerSupervisor
from .wire import WIRE_SCHEMA_VERSION, WireError

__all__ = [
    "FleetForecaster",
    "ForecastClient",
    "ForecastRequest",
    "ForecastService",
    "LiveSessionClient",
    "MicroBatchScheduler",
    "ModelHandle",
    "NamedForecastRequest",
    "RaceSession",
    "ServerError",
    "SessionManager",
    "WarmupStateCache",
    "WireError",
    "WIRE_SCHEMA_VERSION",
    "WorkerRestartingError",
    "WorkerSupervisor",
    "spawn_request_rngs",
]
