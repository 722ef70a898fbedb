"""The HTTP gateway of the serving layer (``repro-serve``).

A stdlib :class:`ThreadingHTTPServer` front-end over the in-process
serving stack, in the style of OpenNMT-py's REST translation server: a
JSON config file names the :class:`~repro.artifacts.ArtifactStore` and the
models to preload, and the process exposes the versioned wire API
(:mod:`repro.serving.wire`):

``GET  /v1/health``
    Liveness/readiness probe.
``GET  /v1/models``
    The store's model catalog, with per-model loaded/pinned state and the
    service's LRU counters.
``POST /v1/models/<name>/load`` / ``POST /v1/models/<name>/unload``
    Model lifecycle against the :class:`~repro.serving.ForecastService`.
``POST /v1/forecast``
    A batch of named forecast requests.  Requests from concurrent
    connections are coalesced by the
    :class:`~repro.serving.scheduler.MicroBatchScheduler` into shared
    per-model fleet passes — byte-identical to direct submission because
    every wire request carries its own RNG stream.
``POST /v1/scenarios``
    A what-if scenario run (:mod:`repro.scenarios`): the response streams
    chunked NDJSON — one wire event per completed race, then the summary —
    so season-scale sweeps report progress instead of blocking.  Forecast
    passes coalesce through the same micro-batch scheduler as
    ``/v1/forecast`` traffic and are byte-identical to the in-process
    ``repro-scenarios`` runner under the same request seed.
``POST /v1/strategy/sweep``
    A rolling pit-strategy sweep through a served RankNet model.
``POST /v1/sessions`` / ``POST /v1/sessions/<id>/lap`` / ``DELETE``
    Server-side live race sessions (:mod:`repro.serving.sessions`): open a
    race, stream one lap of telemetry at a time, receive the whole-field
    forecast for every origin that became final — the carry-mode state
    lives on the server, the client only ships new laps.  A session pins
    its model so LRU pressure from other clients cannot evict the engine
    holding its carried states.

Every response is a versioned wire document; failures are structured
error envelopes, never tracebacks.

Execution: every handler calls one *executor*, built once from the
config — a :class:`~repro.serving.executor.LocalExecutor` over the shared
in-process service (default) or, with ``"workers": true``, a
:class:`~repro.serving.supervisor.WorkerSupervisor` running one supervised
worker subprocess per model, whose crashed replicas restart with
exponential backoff while their live sessions fail over by journal
replay — byte-identical to an uncrashed run.  There is **no global
gateway lock**: engine work serializes per model (the model's micro-batch
scheduler, then its executor lock or worker), so a slow sweep on model A
never blocks a forecast on model B and health always answers.  One meta
lock guards only cheap registries (breakers, schedulers, armed faults).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import signal
import sys
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple

from ..artifacts import ArtifactAliasError, ArtifactNotFoundError, ArtifactStore
from . import wire
from .executor import LocalExecutor, is_engine_failure
from .faults import FaultPlan
from .journal import SessionJournal, journal_dir, load_session, recover_sessions
from .resilience import (
    AdmissionController,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    IdempotencyCache,
    validate_idempotency_key,
)
from .scheduler import MicroBatchScheduler
from .service import ForecastService
from .sessions import SessionManager
from .supervisor import WorkerSupervisor
from .wire import WireError

__all__ = ["ServerConfig", "ForecastGateway", "ForecastServer", "main"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: every key a server config file may carry — anything else is an error
CONFIG_KEYS = {
    "store": "path of the ArtifactStore directory (required)",
    "host": f"bind address (default {DEFAULT_HOST})",
    "port": f"bind port, 0 picks a free one (default {DEFAULT_PORT})",
    "capacity": "max resident models in the ForecastService (default 4)",
    "mode": "fleet engine warm-up mode for /v1/forecast: exact|carry (default exact)",
    "verify": "checksum artifacts on load (default true)",
    "preload": "model names to load at startup (default [])",
    "batch_window_ms": "ceiling in ms of the adaptive micro-batch hold, shrunk while no caller joins (default 5.0)",
    "max_batch": "micro-batch flush size (default 64)",
    "max_sessions": "max concurrently open live sessions (default 32)",
    "max_inflight": "admission bound on concurrently admitted work requests (default 32)",
    "request_deadline_ms": "default server-side time budget per request (default none)",
    "breaker_threshold": "consecutive engine failures before a model's circuit opens (default 5)",
    "breaker_cooldown_s": "seconds an open circuit waits before a half-open probe (default 30)",
    "journal": "crash-safe session write-ahead journal on/off (default true)",
    "journal_compact_laps": "laps between session journal compactions; null disables (default 50)",
    "fault_plan": "deterministic fault-injection plan: inline object or JSON file path (default none)",
    "drain_grace_s": "seconds a SIGTERM drain waits for in-flight work (default 10)",
    "workers": "serve each model from a supervised worker subprocess (default false)",
    "worker_queue": "per-worker bounded queue depth before shedding overloaded (default 8)",
    "worker_restart_budget": "rapid consecutive worker restarts allowed before the replica is failed (default 3)",
    "worker_backoff_s": "base of the exponential backoff between worker restarts (default 0.05)",
    "heartbeat_interval_s": "worker heartbeat ping period in seconds (default 0.25)",
    "heartbeat_timeout_s": "missed-heartbeat deadline before a worker counts as hung (default 2.0)",
}


def _finite(name: str, value) -> float:
    """``float(value)``, refusing NaN and infinities (JSON parses both)."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


@dataclass
class ServerConfig:
    """Validated gateway configuration (see :data:`CONFIG_KEYS`)."""

    store: str
    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    capacity: int = 4
    mode: str = "exact"
    verify: bool = True
    preload: List[str] = field(default_factory=list)
    batch_window_ms: float = 5.0
    max_batch: int = 64
    max_sessions: int = 32
    max_inflight: int = 32
    request_deadline_ms: Optional[float] = None
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 30.0
    journal: bool = True
    journal_compact_laps: Optional[int] = 50
    fault_plan: Optional[object] = None
    drain_grace_s: float = 10.0
    workers: bool = False
    worker_queue: int = 8
    worker_restart_budget: int = 3
    worker_backoff_s: float = 0.05
    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 2.0

    def __post_init__(self) -> None:
        self.store = str(self.store)
        self.host = str(self.host)
        self.port = int(self.port)
        self.capacity = int(self.capacity)
        self.mode = str(self.mode)
        self.verify = bool(self.verify)
        self.preload = [str(name) for name in self.preload]
        self.batch_window_ms = _finite("batch_window_ms", self.batch_window_ms)
        self.max_batch = int(self.max_batch)
        self.max_sessions = int(self.max_sessions)
        self.max_inflight = int(self.max_inflight)
        if self.request_deadline_ms is not None:
            self.request_deadline_ms = _finite("request_deadline_ms", self.request_deadline_ms)
            if self.request_deadline_ms <= 0:
                raise ValueError("request_deadline_ms must be > 0 when set")
        self.breaker_threshold = int(self.breaker_threshold)
        self.breaker_cooldown_s = _finite("breaker_cooldown_s", self.breaker_cooldown_s)
        self.journal = bool(self.journal)
        if self.journal_compact_laps is not None:
            self.journal_compact_laps = int(self.journal_compact_laps)
            if self.journal_compact_laps < 1:
                raise ValueError("journal_compact_laps must be >= 1 when set")
        self.drain_grace_s = _finite("drain_grace_s", self.drain_grace_s)
        self.workers = bool(self.workers)
        self.worker_queue = int(self.worker_queue)
        self.worker_restart_budget = int(self.worker_restart_budget)
        self.worker_backoff_s = _finite("worker_backoff_s", self.worker_backoff_s)
        self.heartbeat_interval_s = _finite("heartbeat_interval_s", self.heartbeat_interval_s)
        self.heartbeat_timeout_s = _finite("heartbeat_timeout_s", self.heartbeat_timeout_s)
        if self.worker_queue < 1:
            raise ValueError("worker_queue must be >= 1")
        if self.worker_restart_budget < 1:
            raise ValueError("worker_restart_budget must be >= 1")
        if self.worker_backoff_s < 0:
            raise ValueError("worker_backoff_s must be >= 0")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be > 0")
        if self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be > 0")
        if self.batch_window_ms < 0:
            raise ValueError("batch_window_ms must be >= 0")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_s < 0:
            raise ValueError("breaker_cooldown_s must be >= 0")
        if self.drain_grace_s < 0:
            raise ValueError("drain_grace_s must be >= 0")

    def load_fault_plan(self, base_dir: Optional[str] = None) -> Optional[FaultPlan]:
        """Resolve the ``fault_plan`` key: inline object, file path, or none."""
        if self.fault_plan is None:
            return None
        if isinstance(self.fault_plan, FaultPlan):
            return self.fault_plan
        if isinstance(self.fault_plan, str):
            path = self.fault_plan
            if base_dir is not None and not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            return FaultPlan.from_file(path)
        return FaultPlan.from_dict(self.fault_plan)

    @classmethod
    def from_dict(cls, document: dict, base_dir: Optional[str] = None) -> "ServerConfig":
        """Build a config from a parsed JSON document.

        Unknown keys are rejected with the full known-key list — a typo
        (``"window_ms"`` for ``"batch_window_ms"``) must fail loudly, not
        silently serve with the default.
        """
        if not isinstance(document, dict):
            raise ValueError("server config must be a JSON object")
        unknown = sorted(set(document) - set(CONFIG_KEYS))
        if unknown:
            known = ", ".join(sorted(CONFIG_KEYS))
            raise ValueError(
                f"unknown server config key(s): {', '.join(unknown)}; known keys: {known}"
            )
        if "store" not in document:
            raise ValueError("server config must name a 'store' directory")
        document = dict(document)
        if base_dir is not None and not os.path.isabs(document["store"]):
            document["store"] = os.path.join(base_dir, document["store"])
        plan = document.get("fault_plan")
        if base_dir is not None and isinstance(plan, str) and not os.path.isabs(plan):
            document["fault_plan"] = os.path.join(base_dir, plan)
        return cls(**document)

    @classmethod
    def from_file(cls, path: str) -> "ServerConfig":
        """Load and validate a JSON config file (store paths relative to it)."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                document = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config file {path!r} is not valid JSON: {exc}") from exc
        return cls.from_dict(document, base_dir=os.path.dirname(os.path.abspath(path)))


# ----------------------------------------------------------------------
# the gateway (transport-independent request handling)
# ----------------------------------------------------------------------
_ROUTES = (
    ("GET", re.compile(r"^/v1/health$"), "health"),
    ("GET", re.compile(r"^/v1/models$"), "models_list"),
    # alias routes come before the per-model ones: ``/v1/models/aliases/x``
    # must dispatch as an alias operation, never as model name "aliases"
    ("GET", re.compile(r"^/v1/models/aliases$"), "alias_list"),
    ("GET", re.compile(r"^/v1/models/aliases/(?P<alias>[^/]+)$"), "alias_resolve"),
    ("POST", re.compile(r"^/v1/models/aliases/(?P<alias>[^/]+)/promote$"), "alias_promote"),
    ("POST", re.compile(r"^/v1/models/aliases/(?P<alias>[^/]+)/rollback$"), "alias_rollback"),
    ("POST", re.compile(r"^/v1/models/(?P<name>[^/]+)/load$"), "model_load"),
    ("POST", re.compile(r"^/v1/models/(?P<name>[^/]+)/unload$"), "model_unload"),
    ("POST", re.compile(r"^/v1/forecast$"), "forecast"),
    ("POST", re.compile(r"^/v1/scenarios$"), "scenarios"),
    ("POST", re.compile(r"^/v1/strategy/sweep$"), "strategy_sweep"),
    ("GET", re.compile(r"^/v1/sessions$"), "sessions_list"),
    ("POST", re.compile(r"^/v1/sessions$"), "session_open"),
    ("POST", re.compile(r"^/v1/sessions/(?P<sid>[^/]+)/lap$"), "session_lap"),
    ("DELETE", re.compile(r"^/v1/sessions/(?P<sid>[^/]+)$"), "session_close"),
)


class ForecastGateway:
    """Routes wire documents to the serving stack; owns all its state."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.started_at = time.monotonic()
        self.store = ArtifactStore(config.store)
        self.service = ForecastService(
            self.store, capacity=config.capacity, mode=config.mode, verify=config.verify
        )
        # No global gateway lock.  Engine work serializes per model inside
        # the executor — a per-model lock around the shared service
        # in-process, a per-model worker subprocess in worker mode — so
        # cross-model traffic runs concurrently.  This meta lock guards
        # only the cheap registries below (breakers, schedulers, the
        # armed-fault counter).
        self._meta_lock = threading.RLock()
        self._schedulers: Dict[str, MicroBatchScheduler] = {}
        if config.workers:
            self.executor = WorkerSupervisor(
                config.store,
                capacity=config.capacity,
                mode=config.mode,
                verify=config.verify,
                queue_limit=config.worker_queue,
                restart_budget=config.worker_restart_budget,
                backoff_base_s=config.worker_backoff_s,
                heartbeat_interval_s=config.heartbeat_interval_s,
                heartbeat_timeout_s=config.heartbeat_timeout_s,
                on_worker_restarted=self._failover_sessions,
            )
        else:
            self.executor = LocalExecutor(self.service)
        self.sessions = SessionManager(limit=config.max_sessions)
        # ---- resilience state ------------------------------------------
        self.admission = AdmissionController(limit=config.max_inflight)
        self.idempotency = IdempotencyCache()
        #: injectable for tests: drives breaker cooldown without sleeping
        self.breaker_clock = time.monotonic
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.faults = config.load_fault_plan()
        self._armed_engine_errors = 0
        self.draining = False
        self.journal_dir = journal_dir(config.store) if config.journal else None
        self.sessions_recovered = 0
        self.recovery_errors: List[str] = []
        for name in config.preload:
            self.executor.ensure(name)
        self._recover_journaled_sessions()

    # ------------------------------------------------------------------
    # per-model routing
    # ------------------------------------------------------------------
    def _scheduler(self, model: str) -> MicroBatchScheduler:
        """The micro-batch scheduler owning one model's engine passes."""
        with self._meta_lock:
            scheduler = self._schedulers.get(model)
            if scheduler is None:
                scheduler = self._schedulers[model] = MicroBatchScheduler(
                    lambda requests, name=model: self._submit_model(name, requests),
                    window=self.config.batch_window_ms / 1e3,
                    max_batch=self.config.max_batch,
                )
            return scheduler

    def scheduler_stats(self) -> Dict[str, int]:
        """Micro-batch stats over the per-model schedulers: counters are
        summed, ``MicroBatchScheduler.GAUGES`` take the max."""
        with self._meta_lock:
            schedulers = list(self._schedulers.values())
        totals: Dict[str, int] = {}
        for scheduler in schedulers:
            for key, value in scheduler.stats.items():
                if key in MicroBatchScheduler.GAUGES:
                    totals[key] = max(totals.get(key, 0), value)
                else:
                    totals[key] = totals.get(key, 0) + value
        return totals

    def submit_settled(self, requests):
        """Fan a mixed-model batch out to the per-model schedulers.

        Each named model has its own scheduler (created on first sight),
        so model A's flush — or its crashed worker — never blocks model
        B's; collection spans the per-model entries, preserving the
        submission-order contract of ``MicroBatchScheduler.submit_settled``.
        Requests naming unregistered models settle immediately instead of
        growing the scheduler registry.
        """
        requests = list(requests)
        if not requests:
            return []
        outcomes: List[object] = [None] * len(requests)
        groups: Dict[str, List[int]] = {}
        resolved: Dict[str, object] = {}
        for index, named in enumerate(requests):
            # alias targets resolve here, at submit time: requests naming
            # ``champion`` and its target artifact share one scheduler (and
            # therefore one coalesced engine pass), and a promotion landing
            # mid-flight never splits a batch across two targets
            if named.model not in resolved:
                try:
                    resolved[named.model] = self.store.resolve(named.model)
                except ArtifactNotFoundError as exc:  # dangling alias
                    resolved[named.model] = exc
            model = resolved[named.model]
            if isinstance(model, ArtifactNotFoundError):
                outcomes[index] = model
                continue
            groups.setdefault(model, []).append(index)
        waiting = []
        for model, indices in groups.items():
            if model not in self._schedulers and model not in self.store:
                error = ArtifactNotFoundError(
                    f"artifact {model!r} is not registered in {self.store.root}"
                )
                for index in indices:
                    outcomes[index] = error
                continue
            entries = self._scheduler(model).enqueue([requests[i] for i in indices])
            waiting.extend(zip(indices, entries))
        if waiting:
            settled = MicroBatchScheduler.collect([entry for _, entry in waiting])
            for (index, _), outcome in zip(waiting, settled):
                outcomes[index] = outcome
        return outcomes

    def _submit_model(self, model: str, requests):
        """One model's scheduler downstream: guards, then its engine.

        Runs only on that model's scheduler worker thread.  Raising here
        fails the *coalesced* batch; the scheduler then isolates by
        retrying each request alone, so every guard below also fires with
        single-request precision on the retry pass.
        """
        with self._meta_lock:
            breaker = self._breakers.get(model)
        # fail fast while the model's circuit is open — no queueing behind
        # an engine that is known-broken
        if breaker is not None and not breaker.allow():
            raise CircuitOpenError(
                f"model {model!r} circuit is open after repeated engine "
                f"failures; retry after cooldown",
                retry_after_ms=breaker.retry_after_ms() or 1000,
            )
        # shed queued work whose budget ran out while it waited
        deadlines = []
        for named in requests:
            if named.deadline is not None:
                named.deadline.check(f"forecast for model {model!r}")
                deadlines.append(named.deadline)
        with self._meta_lock:
            armed = self._armed_engine_errors > 0
            if armed:
                self._armed_engine_errors -= 1
        if armed:
            self._breaker(model).record_failure()
            raise RuntimeError("injected engine failure (fault plan)")
        timeout_s = None
        if deadlines:
            timeout_s = max(min(d.remaining() for d in deadlines), 1e-3)
        try:
            results = self.executor.submit(model, requests, timeout_s=timeout_s)
        except Exception as exc:
            if is_engine_failure(exc):
                self._breaker(model).record_failure()
            raise
        if breaker is not None:
            breaker.record_success()
        return results

    def _breaker(self, name: str) -> CircuitBreaker:
        with self._meta_lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = self._breakers[name] = CircuitBreaker(
                    threshold=self.config.breaker_threshold,
                    cooldown_s=self.config.breaker_cooldown_s,
                    clock=lambda: self.breaker_clock(),
                )
            return breaker

    def arm_engine_errors(self, count: int) -> None:
        """Make the next ``count`` engine submits raise (fault injection)."""
        with self._meta_lock:
            self._armed_engine_errors += int(count)

    def inject_worker_fault(self, kind: str, model: str = "") -> Optional[int]:
        """Execute a ``kill_worker``/``hang_worker`` fault; returns the pid hit.

        A no-op (``None``) on gateways without a worker pool — the fault
        kinds are only meaningful against real replica subprocesses.
        """
        if kind == "kill_worker":
            return self.executor.kill_worker(model)
        return self.executor.hang_worker(model)

    def close(self) -> None:
        with self._meta_lock:
            schedulers = list(self._schedulers.values())
        for scheduler in schedulers:
            scheduler.close()
        for managed in self.sessions.close_all():
            # keep the journal: a session open at shutdown is exactly what
            # the next boot must recover
            if managed.journal is not None:
                managed.journal.close(remove=False)
            self.executor.unpin(managed.model)
        self.executor.close()

    # ------------------------------------------------------------------
    # session journal recovery (runs once, at boot)
    # ------------------------------------------------------------------
    def _recover_journaled_sessions(self) -> None:
        """Rebuild every journaled live session left behind by a dead gateway.

        Replaying the ``open`` document re-seeds the session's RNG
        transport and replaying the laps re-consumes its streams and
        carry-mode warm-ups in the original order, so the rebuilt session
        continues producing forecasts byte-identical to a gateway that
        never died.  A journal that cannot be replayed (its model left the
        store, say) is kept on disk and reported, never silently dropped.
        """
        if self.journal_dir is None:
            return
        for recovered in recover_sessions(self.journal_dir):
            try:
                managed = self._open_session(
                    recovered.open_document, session_id=recovered.session_id
                )
                self._replay(managed, recovered.laps)
            except Exception as exc:
                self.recovery_errors.append(f"{recovered.session_id}: {exc}")

    def _replay(self, managed, laps, internal: bool = False) -> None:
        """Re-apply journaled laps to a rebuilt session.

        Drained forecasts were already delivered before the crash; the
        replay repopulates the session's per-lap emission log, so a lap
        posted again afterwards still gets its original answer.
        """
        for record in laps:
            managed.session.apply_lap(record["lap"], record["records"], internal=internal)
        managed.recovered = True
        self.sessions_recovered += 1

    def _failover_sessions(self, model: str) -> None:
        """Replay journaled live sessions into a freshly restarted worker.

        Runs on the supervisor's restart thread *before* the replacement
        replica is marked live, so no client op can interleave with the
        replay.  The journal's open document and lap records rebuild the
        worker-side session through the exact construction the dead worker
        ran — RNG transport included — so every forecast after the
        failover is byte-identical to an uncrashed worker's.  A session
        that cannot fail over (journaling off, or a replay error) is
        closed and reported in ``recovery_errors`` rather than silently
        served from a blank replica.
        """
        for managed in self.sessions.snapshot():
            if managed.model != model:
                continue
            with managed.lock:
                if managed.closed:
                    continue
                try:
                    recovered = (
                        load_session(self.journal_dir, managed.session_id)
                        if self.journal_dir is not None
                        else None
                    )
                    if recovered is None:
                        raise RuntimeError("no journal to fail over from")
                    managed.session = self.executor.open_session(
                        model, managed.session_id, recovered.open_document, internal=True
                    )
                    self._replay(managed, recovered.laps, internal=True)
                except Exception as exc:
                    self.recovery_errors.append(
                        f"{managed.session_id}: worker failover failed: {exc}"
                    )
                    managed.closed = True
                    try:
                        self.sessions.close(managed.session_id)
                    except KeyError:
                        pass
                    self.executor.unpin(model)
                    if managed.journal is not None:
                        managed.journal.close(remove=False)

    # ------------------------------------------------------------------
    #: handlers that do engine/session work and therefore pass admission
    #: control; probes (health, catalogs, listings) always answer
    _WORK_HANDLERS = frozenset(
        {"forecast", "strategy_sweep", "session_open", "session_lap", "session_close"}
    )

    def handle(self, method: str, path: str, body: Optional[dict]) -> Tuple[int, dict]:
        """Dispatch one request; always returns ``(status, wire document)``."""
        try:
            path_matched = False
            for route_method, pattern, handler in _ROUTES:
                match = pattern.match(path)
                if match is None:
                    continue
                path_matched = True
                if method == route_method:
                    return self._execute(handler, body, match.groupdict())
            if path_matched:
                raise WireError(
                    "method_not_allowed", f"{method} not allowed on {path}", status=405
                )
            raise WireError("unknown_route", f"no route for {method} {path}", status=404)
        except WireError as exc:
            return wire.error_to_wire(exc)
        except ArtifactNotFoundError as exc:
            return wire.error_to_wire(WireError("unknown_model", str(exc), status=404))
        except Exception as exc:  # structured envelope instead of a traceback
            return wire.error_to_wire(exc)

    def _execute(self, handler: str, body: Optional[dict], path_params: dict) -> Tuple[int, dict]:
        """Run one routed handler under the resilience envelope.

        Work handlers pass admission control (bounded queue, structured
        ``429 overloaded`` past the bound), are refused while the gateway
        drains, and participate in idempotent replay: a request carrying
        an ``idempotency_key`` the gateway already answered gets the
        stored document back without re-executing.
        """
        bound = getattr(self, f"_handle_{handler}")
        if handler not in self._WORK_HANDLERS:
            return 200, bound(body, **path_params)
        self._check_draining()
        key = None
        if isinstance(body, dict):
            key = validate_idempotency_key(body.get("idempotency_key"))
            if handler == "session_lap":
                # the session replays a duplicate lap from its emission
                # log (RaceSession.apply_lap): caching the lap document
                # too would keep every lap's answer twice
                key = None
            cached = self.idempotency.get(key)
            if cached is not None:
                status, document = cached
                return status, document
        with self.admission.admit(handler):
            document = bound(body, **path_params)
        # only successful outcomes replay: a shed/failed request must be
        # re-executed by its retry, not echoed back
        self.idempotency.put(key, 200, document)
        return 200, document

    def _check_draining(self) -> None:
        if self.draining:
            raise WireError(
                "overloaded",
                "gateway is draining (shutdown in progress); retry against "
                "a live replica",
                status=429,
                detail={"retry_after_ms": 1000, "draining": True},
            )

    def _deadline_from(self, body: Optional[dict]) -> Optional[Deadline]:
        """The request's server-side time budget (wire field or config default)."""
        budget_ms = None
        if isinstance(body, dict):
            budget_ms = body.get("deadline_ms")
        if budget_ms is None:
            budget_ms = self.config.request_deadline_ms
        return Deadline.from_ms(budget_ms)

    # ------------------------------------------------------------------
    # models
    # ------------------------------------------------------------------
    def _handle_health(self, body, **_) -> dict:
        # deliberately lock-light: health must keep answering — with
        # uptime and per-model breaker state — even while an engine pass
        # holds a model lock or a worker replica is mid-restart
        with self._meta_lock:
            breakers = {name: b.describe() for name, b in sorted(self._breakers.items())}
        return wire.envelope(
            "health",
            status="draining" if self.draining else "ok",
            uptime_s=round(time.monotonic() - self.started_at, 3),
            models_available=len(self.store),
            models_loaded=len(self.executor.models()),
            sessions_open=len(self.sessions),
            in_flight=self.admission.in_flight,
            queue_depth=self.admission.queue_depth,
            admission=self.admission.describe(),
            breakers=breakers,
            workers=self.executor.describe(),
            worker_pool=self.executor.worker_pool,
            idempotency=self.idempotency.stats,
            scheduler=self.scheduler_stats(),
            sessions_recovered=self.sessions_recovered,
            recovery_errors=list(self.recovery_errors),
        )

    def _handle_models_list(self, body, **_) -> dict:
        loaded_list = self.executor.models()
        pinned = set(self.executor.pinned())
        loaded = set(loaded_list)
        aliases = self.store.aliases()
        models = [
            {
                **entry,
                "loaded": entry["name"] in loaded,
                "pinned": entry["name"] in pinned,
                "aliases": sorted(a for a, t in aliases.items() if t == entry["name"]),
            }
            for entry in self.store.catalog()
        ]
        return wire.envelope(
            "model-catalog",
            models=models,
            loaded=loaded_list,
            aliases=[{"alias": a, "target": t} for a, t in sorted(aliases.items())],
            stats=self.executor.stats,
        )

    def _registered(self, name: str) -> str:
        """Resolve an alias; an unknown model is ``unknown_model`` before
        any executor work (a worker for it would die at start-up)."""
        name = self.store.resolve(name)
        if name not in self.store:
            raise ArtifactNotFoundError(
                f"artifact {name!r} is not registered in {self.store.root}"
            )
        return name

    def _handle_model_load(self, body, name: str) -> dict:
        name = self._registered(name)
        try:
            self.executor.ensure(name)
        except ValueError as exc:  # capacity exhausted by pins
            raise WireError("capacity_exhausted", str(exc), status=409) from exc
        entry = self.store.entry(name)
        return wire.envelope(
            "model-loaded", name=name, family=str(entry.get("family", "")), entry=entry
        )

    def _handle_model_unload(self, body, name: str) -> dict:
        # alias guards live at the gateway so both serving modes refuse
        # identically: unloading an alias name, or a model an alias still
        # points at, would leave aliased traffic on a stale/cold handle
        if self.store.is_alias(name):
            raise WireError(
                "model_aliased",
                f"{name!r} is an alias; unload its target or delete the alias",
                status=409,
            )
        referencing = self.store.aliases_for(name)
        if referencing:
            raise WireError(
                "model_aliased",
                f"model {name!r} is the target of alias(es) "
                f"{', '.join(repr(a) for a in referencing)} and cannot be unloaded",
                status=409,
                detail={"aliases": referencing},
            )
        try:
            unloaded = self.executor.stop(name)
        except ArtifactAliasError as exc:  # raced with a concurrent promotion
            raise WireError("model_aliased", str(exc), status=409) from exc
        except ValueError as exc:  # pinned by an open session
            raise WireError("model_pinned", str(exc), status=409) from exc
        return wire.envelope("model-unloaded", name=name, unloaded=unloaded)

    # ------------------------------------------------------------------
    # champion/challenger aliases (wire schema v6)
    # ------------------------------------------------------------------
    def _handle_alias_list(self, body, **_) -> dict:
        return wire.envelope(
            "alias-list",
            aliases=[
                {"alias": alias, "target": target}
                for alias, target in sorted(self.store.aliases().items())
            ],
        )

    def _handle_alias_resolve(self, body, alias: str) -> dict:
        if not self.store.is_alias(alias):
            raise WireError(
                "unknown_alias", f"alias {alias!r} is not registered", status=404
            )
        target = self.store.resolve(alias)
        return wire.envelope(
            "alias-resolved", alias=alias, target=target, entry=self.store.entry(target)
        )

    def _handle_alias_promote(self, body, alias: str) -> dict:
        target = wire.name_from_wire(body, "alias-promote", field="target")
        note = body.get("note", "")
        # imported lazily: repro.learning is a consumer of the serving
        # stack; importing it at module load would be circular
        from ..learning.promote import PromotionManager

        try:
            record = PromotionManager(self.store).promote(alias, target, note=str(note))
        except ArtifactAliasError as exc:
            raise WireError("invalid_alias", str(exc), status=400) from exc
        except ValueError as exc:  # no-op promotion (target already champion)
            raise WireError("invalid_alias", str(exc), status=400) from exc
        # warm the promoted replica so the first aliased request after a
        # promotion doesn't pay a cold load; in worker mode this (re)spawns
        # the target's worker subprocess
        warmed = True
        try:
            self.executor.ensure(target)
        except ValueError:  # capacity held by pins — promotion still stands
            warmed = False
        return wire.envelope(
            "alias-promoted",
            alias=alias,
            target=record["target"],
            previous=record["previous"],
            warmed=warmed,
        )

    def _handle_alias_rollback(self, body, alias: str) -> dict:
        if not self.store.is_alias(alias):
            raise WireError(
                "unknown_alias", f"alias {alias!r} is not registered", status=404
            )
        from ..learning.promote import PromotionManager

        try:
            record = PromotionManager(self.store).rollback(alias)
        except ValueError as exc:  # no previous champion recorded
            raise WireError("invalid_alias", str(exc), status=400) from exc
        warmed = True
        try:
            self.executor.ensure(record["target"])
        except ValueError:
            warmed = False
        return wire.envelope(
            "alias-rolled-back",
            alias=alias,
            target=record["target"],
            previous=record["previous"],
            warmed=warmed,
        )

    # ------------------------------------------------------------------
    # forecasting
    # ------------------------------------------------------------------
    def _handle_forecast(self, body, **_) -> dict:
        named = wire.forecast_batch_from_wire(body, require_rng=True)
        if not named:
            return wire.results_to_wire([])
        deadline = self._deadline_from(body)
        if deadline is not None:
            deadline.check("forecast batch")  # cheap pre-flight
            for request in named:
                request.deadline = deadline
        settled = self.submit_settled(named)
        return wire.results_to_wire(
            [self._classify_failure(outcome) for outcome in settled]
        )

    @staticmethod
    def _classify_failure(outcome):
        if isinstance(outcome, ArtifactNotFoundError):
            return WireError("unknown_model", str(outcome), status=404)
        if isinstance(outcome, (TypeError, ValueError)) and not isinstance(outcome, WireError):
            return WireError("invalid_request", str(outcome), status=400)
        return outcome

    # ------------------------------------------------------------------
    # what-if scenarios
    # ------------------------------------------------------------------
    def open_scenario_stream(self, body):
        """Validate a scenario request and return its event iterator.

        Validation errors raise *before* the iterator exists, so the HTTP
        layer can still answer with a plain error status; failures during
        the run are emitted as a trailing error envelope on the stream.
        The simulation itself never holds an engine lock — only model
        resolution and the coalesced fleet passes (through the per-model
        schedulers, like any other client's traffic) serialize per model.
        """
        self._check_draining()
        spec, seed = wire.scenario_request_from_wire(body)
        resume_from = wire.resume_from_wire(body)
        # imported lazily: the scenarios engine pulls in the simulation stack
        from ..scenarios.engine import ScenarioEngine, ScenarioRaceResult

        engine = ScenarioEngine(
            resolve=self._resolve_forecaster, submit=self.submit_settled
        )
        total = len(spec.jobs())
        # the stream occupies one admission slot for its whole lifetime —
        # a scenario run is engine work like any forecast; acquired here so
        # an overloaded gateway refuses before any HTTP headers go out
        slot = self.admission.admit("scenarios")

        def _events():
            # A resumed stream re-runs the scenario from the same seed and
            # suppresses the first ``resume_from`` events: runs are bitwise
            # deterministic, so re-execution IS the stream replay — no
            # server-side buffering of past events.
            emitted = 0

            def _due() -> bool:
                nonlocal emitted
                emitted += 1
                return emitted > resume_from

            try:
                if _due():
                    yield wire.scenario_start_to_wire(spec, seed, total)
                index = 0
                try:
                    for item in engine.run_iter(spec, seed):
                        if isinstance(item, ScenarioRaceResult):
                            document = wire.scenario_race_to_wire(item, index, total)
                            index += 1
                        else:
                            document = wire.scenario_summary_to_wire(item)
                        if _due():
                            yield document
                except Exception as exc:  # surfaced on-stream: headers are long gone
                    _status, document = wire.error_to_wire(self._classify_failure(exc))
                    yield document
            finally:
                slot.release()

        return _events()

    def _resolve_forecaster(self, name: str):
        # the service registry is thread-safe; the scenario engine needs
        # the forecaster only to *shape* requests — every engine pass
        # routes through submit_settled like any other client's traffic.
        # (In worker mode this keeps a read-only gateway-side copy of the
        # model for request construction; the passes still hit the worker.)
        return self.service.load(name).forecaster

    def _handle_scenarios(self, body, **_) -> dict:
        """Non-streaming fallback: the whole event list in one document."""
        events = list(self.open_scenario_stream(body))
        return wire.envelope("scenario-results", events=events)

    def _handle_strategy_sweep(self, body, **_) -> dict:
        # only the envelope and the model name here: the executor parses
        # the rest (series arrays included) once, in-process or in the worker
        model = wire.name_from_wire(body, "sweep-request")
        deadline = self._deadline_from(body)
        # resolve an alias to its target so aliased and direct sweeps
        # serialize on the same per-model lock / worker
        model = self._registered(model)
        if deadline is not None:
            deadline.check(f"strategy sweep for model {model!r}")
        timeout_s = None if deadline is None else max(deadline.remaining(), 1e-3)
        return self.executor.sweep(model, body, timeout_s=timeout_s)

    # ------------------------------------------------------------------
    # live sessions
    # ------------------------------------------------------------------
    def _handle_sessions_list(self, body, **_) -> dict:
        return wire.envelope("session-list", sessions=self.sessions.describe())

    def _handle_session_open(self, body, **_) -> dict:
        managed = self._open_session(body)
        return wire.envelope("session-opened", **managed.describe())

    def _open_session(self, body, session_id: Optional[str] = None):
        """Open (or, with ``session_id``, recover) one managed session.

        The journal recovery path replays the exact wire ``session-open``
        document through this same code, so a recovered session is built
        by the identical construction — including the RNG transport — as
        the one the dead gateway ran.  Any failure after the model is
        pinned rolls back everything done so far: the registration, the
        executor-side session, the pin and a half-written journal.
        """
        model = wire.name_from_wire(body, "session-open")
        known = {
            "schema_version", "kind", "model", "horizon", "n_samples", "min_history",
            "delay", "start", "stop", "stride", "event", "year", "rng",
            "idempotency_key", "deadline_ms", "precision",
        }
        unknown = sorted(set(body) - known)
        if unknown:
            raise WireError(
                "malformed_request", f"unknown session-open field(s): {', '.join(unknown)}"
            )
        # sessions bind to the *resolved* target for their whole lifetime:
        # the pinned handle carries warm-up states, so a promotion landing
        # mid-race must not re-point laps of an already-open session.  (A
        # journal-recovered session re-resolves at recovery time — the
        # replayed laps rebuild deterministically on the then-current
        # champion.)
        model = self._registered(model)
        # the id is allocated before the executor opens the session, so a
        # later failure can roll a worker-side session back by that id
        sid = session_id if session_id is not None else self.sessions.allocate_id()
        try:
            self.executor.pin(model)
        except ValueError as exc:
            raise WireError("capacity_exhausted", str(exc), status=409) from exc
        with ExitStack() as rollback:
            rollback.callback(self.executor.unpin, model)
            session = self.executor.open_session(model, sid, body)
            rollback.callback(session.drop)
            try:
                managed = self.sessions.open(session, model=model, session_id=sid)
            except RuntimeError as exc:  # session limit
                raise WireError("too_many_sessions", str(exc), status=429) from exc
            rollback.callback(self.sessions.close, sid)
            if self.journal_dir is not None:
                journal = SessionJournal(
                    self.journal_dir, sid, compact_every=self.config.journal_compact_laps
                )
                if session_id is None:
                    # WAL: the open document hits disk before the open is
                    # acknowledged; a recovered session's file already has
                    # it, and a failed recovery keeps its file for the report
                    rollback.callback(journal.close, remove=True)
                    journal.record_open(body)
                managed.journal = journal
            rollback.pop_all()
        return managed

    def _get_session(self, sid: str):
        try:
            return self.sessions.get(sid)
        except KeyError as exc:
            raise WireError("unknown_session", f"no open session {sid!r}", status=404) from exc

    def _handle_session_lap(self, body, sid: str) -> dict:
        document = wire.check_envelope(body, kind="session-lap")
        managed = self._get_session(sid)
        lap = document.get("lap")
        records = document.get("records")
        if not isinstance(lap, int) or isinstance(lap, bool):
            raise WireError("malformed_request", "session-lap needs an integer 'lap'")
        if not isinstance(records, list):
            raise WireError("malformed_request", "session-lap needs a 'records' array")
        # normalise LapRecord-style objects from in-process callers: the
        # journal and the worker pipes both require JSON-clean records
        records = [wire.lap_record_to_wire(record) for record in records]
        deadline = self._deadline_from(document)
        with managed.lock:
            if managed.closed:  # lost a race against DELETE on this session
                raise WireError(
                    "unknown_session", f"session {sid!r} was closed", status=404
                )
            if deadline is not None:
                deadline.check(f"lap {lap} for session {sid!r}")
            timeout_s = None if deadline is None else max(deadline.remaining(), 1e-3)
            # the session itself decides duplicate-vs-new (apply_lap): a
            # duplicate — the retry of a lap whose response was lost (torn
            # connection, or a crash after the WAL append) — replays the
            # original forecasts byte-identically from the emission log
            # without running the engine again; and after a worker
            # failover only the rebuilt worker-side session knows where
            # its journal replay left off
            try:
                emitted, replayed = managed.session.apply_lap(
                    lap, records, timeout_s=timeout_s
                )
            except Exception as exc:
                # e.g. a worker death mid-lap: the supervisor's restart and
                # journal failover bring the session back for the retry
                if is_engine_failure(exc):
                    self._breaker(managed.model).record_failure()
                raise
            if managed.journal is not None and not replayed:
                # journaled after a successful apply, fsynced before the
                # response: an acknowledged lap is always on disk, a
                # rejected lap never poisons the journal, and a lap lost
                # in the crash window is simply re-applied
                # (deterministically) by the retry
                managed.journal.record_lap(lap, records)
        return wire.envelope(
            "session-lap-results", results=wire.emitted_to_wire(emitted), replayed=replayed
        )

    def _handle_session_close(self, body, sid: str) -> dict:
        try:
            managed = self.sessions.close(sid)
        except KeyError as exc:
            raise WireError("unknown_session", f"no open session {sid!r}", status=404) from exc
        # the feed is over: by default flush the origins still held back by
        # the finality delay ({"drain": false} skips the flush)
        drain = True if body is None else bool(body.get("drain", True))
        # same lock order as a lap (session lock, then the model's lock)
        with managed.lock:
            managed.closed = True
            try:
                remaining = managed.session.finish(drain=drain)
            finally:
                # the session is deregistered whatever the drain did, so
                # its pin and journal go with it — a journal left behind
                # would resurrect a closed session at the next boot
                self.executor.unpin(managed.model)
                if managed.journal is not None:
                    managed.journal.close(remove=True)
        return wire.envelope(
            "session-closed", results=wire.emitted_to_wire(remaining), **managed.describe()
        )


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
class _GatewayRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    gateway: ForecastGateway  # injected by ForecastServer
    quiet = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _read_body(self) -> Optional[dict]:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError("malformed_request", f"request body is not valid JSON: {exc}") from exc

    def _apply_fault(self, method: str):
        """Execute the fault plan's ``before`` phase for this request.

        Returns ``(handled, fault)``: ``handled`` means the fault consumed
        the request entirely (nothing more to send); ``fault`` is passed on
        so ``when="after"`` drops and stream truncation fire later.
        """
        plan = self.gateway.faults
        if plan is None:
            return False, None
        fault = plan.intercept(method, self.path)
        if fault is None:
            return False, None
        if fault.kind == "delay":
            time.sleep(fault.delay_s)
            return False, None
        if fault.kind == "engine_error":
            # the fault surfaces downstream, when the engine submit raises
            self.gateway.arm_engine_errors(1)
            return False, None
        if fault.kind in ("kill_worker", "hang_worker"):
            # a real SIGKILL/SIGSTOP lands on the worker subprocess before
            # this request dispatches; the request then proceeds into the
            # degraded gateway (worker_restarting, breaker, failover)
            self.gateway.inject_worker_fault(fault.kind, fault.model)
            return False, None
        if fault.kind == "error":
            status, document = wire.error_to_wire(
                WireError("injected_fault", fault.message, status=fault.status)
            )
            self._send_document(status, document)
            return True, None
        if fault.kind == "drop" and fault.when == "before":
            # sever the connection without reading or answering — the
            # request was never executed, so a retry is trivially safe
            self.close_connection = True
            try:
                self.connection.close()
            except OSError:  # pragma: no cover - already gone
                pass
            return True, None
        return False, fault  # drop-after / truncate execute the work first

    def _dispatch(self, method: str) -> None:
        handled, fault = self._apply_fault(method)
        if handled:
            return
        if method == "POST" and self.path == "/v1/scenarios":
            return self._dispatch_scenario_stream(fault)
        try:
            body = self._read_body()
        except WireError as exc:
            status, document = wire.error_to_wire(exc)
        else:
            status, document = self.gateway.handle(method, self.path, body)
        if fault is not None and fault.kind == "drop":
            # when="after": the work ran (and journaled) but the response
            # is lost on the wire — the replay case idempotency keys and
            # the per-lap emission log exist for
            self.close_connection = True
            try:
                self.connection.close()
            except OSError:  # pragma: no cover - already gone
                pass
            return
        self._send_document(status, document)

    def _send_document(self, status: int, document: dict) -> None:
        payload = json.dumps(document).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _dispatch_scenario_stream(self, fault=None) -> None:
        """``POST /v1/scenarios``: chunked NDJSON, one wire event per line.

        Season sweeps take a while; instead of buffering the whole run
        behind Content-Length, each completed race is flushed as its own
        chunk so clients report progress while the gateway still works.
        A ``truncate`` fault cuts the stream after ``after_events`` chunks
        without the terminating chunk — the torn stream the resumable
        client recovers from.
        """
        try:
            body = self._read_body()
            events = self.gateway.open_scenario_stream(body)
        except WireError as exc:
            status, document = wire.error_to_wire(exc)
            return self._send_document(status, document)
        except Exception as exc:  # pragma: no cover - defensive
            status, document = wire.error_to_wire(exc)
            return self._send_document(status, document)
        truncate_after = (
            fault.after_events if fault is not None and fault.kind == "truncate" else None
        )
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        sent = 0
        try:
            for document in events:
                if truncate_after is not None and sent >= truncate_after:
                    # torn mid-stream: no terminating 0-chunk, dead socket
                    self.close_connection = True
                    try:
                        self.connection.close()
                    except OSError:  # pragma: no cover - already gone
                        pass
                    return
                line = json.dumps(document).encode("utf-8") + b"\n"
                self.wfile.write(f"{len(line):x}\r\n".encode("ascii") + line + b"\r\n")
                self.wfile.flush()
                sent += 1
        finally:
            # the generator's finally releases its admission slot even when
            # the stream is cut (truncate fault, client hang-up)
            events.close()
        self.wfile.write(b"0\r\n\r\n")

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")


class ForecastServer:
    """A running gateway: ThreadingHTTPServer + the shared serving stack."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.gateway = ForecastGateway(config)
        handler = type(
            "BoundGatewayHandler", (_GatewayRequestHandler,), {"gateway": self.gateway}
        )
        self.httpd = ThreadingHTTPServer((config.host, config.port), handler)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolved even when the config asked for port 0)."""
        return int(self.httpd.server_address[1])

    def start(self) -> "ForecastServer":
        """Serve on a daemon thread (the in-process/test entry point)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.gateway.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "ForecastServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# CLI (the ``repro-serve`` console script)
# ----------------------------------------------------------------------
def _install_drain_handler(server: ForecastServer) -> None:
    """SIGTERM → graceful drain: refuse new work, finish in-flight, exit.

    The handler flips the gateway into draining mode (work requests get a
    structured ``429 overloaded`` with ``draining: true``) and a helper
    thread stops the listener once in-flight work hits zero or the grace
    period runs out.  Open sessions keep their journals, so the next boot
    recovers them.
    """

    def _drain(signum, frame):  # pragma: no cover - exercised via subprocess
        gateway = server.gateway
        gateway.draining = True

        def _wait_and_stop():
            grace_until = time.monotonic() + server.config.drain_grace_s
            while time.monotonic() < grace_until and gateway.admission.in_flight > 0:
                time.sleep(0.05)
            server.httpd.shutdown()

        threading.Thread(
            target=_wait_and_stop, name="repro-serve-drain", daemon=True
        ).start()

    signal.signal(signal.SIGTERM, _drain)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve forecast models from an artifact store over HTTP.",
    )
    parser.add_argument("--config", required=True, help="JSON server config file")
    parser.add_argument("--host", default=None, help="override the config's bind address")
    parser.add_argument("--port", default=None, type=int, help="override the config's port")
    args = parser.parse_args(argv)
    try:
        config = ServerConfig.from_file(args.config)
    except (OSError, ValueError, TypeError) as exc:
        print(f"repro-serve: bad config: {exc}", file=sys.stderr)
        return 2
    if args.host is not None:
        config.host = args.host
    if args.port is not None:
        config.port = args.port
    try:
        server = ForecastServer(config)
    except Exception as exc:  # missing store/model, port in use, ...
        print(f"repro-serve: cannot start: {exc}", file=sys.stderr)
        return 2
    _install_drain_handler(server)
    print(
        f"repro-serve: listening on http://{server.host}:{server.port} "
        f"(store={config.store}, preloaded={config.preload})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
