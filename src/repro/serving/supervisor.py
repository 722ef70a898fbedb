"""Gateway-side supervision tree for the multi-process worker pool.

:class:`WorkerSupervisor` is the gateway's executor in worker mode — the
methods of :class:`~repro.serving.executor.LocalExecutor`, each routed to
one worker subprocess per served model replica
(:func:`repro.serving.workers.worker_main`).  It supervises them the way
an Erlang supervision tree would:

* **heartbeats** — a monitor thread pings every live worker's control
  pipe each ``heartbeat_interval_s``; a worker that misses the
  ``heartbeat_timeout_s`` deadline is declared hung and SIGKILLed (a
  SIGSTOPped process cannot answer, but SIGKILL still lands on it);
* **crash detection** — a dead process is noticed both by the monitor
  and, faster, by any op waiting on its pipe (EOF mid-request);
* **restarts** — a dead replica is restarted on a dedicated thread with
  exponential backoff (``backoff_base_s`` doubling up to
  ``backoff_max_s``) under a **restart budget**: crashes arriving less
  than ``min_uptime_s`` apart count into one failure episode, and once
  an episode exceeds ``restart_budget`` the replica is marked ``failed``
  instead of flap-restarting forever (Erlang's max restart intensity);
* **failover** — after a replacement process answers its readiness ping,
  the ``on_worker_restarted(model)`` callback runs *before* the replica
  is marked live again.  The gateway uses it to replay each affected
  session's write-ahead journal into the fresh process, so subsequent
  forecasts are byte-identical to an uncrashed run.  While a replica is
  down, its requests fail fast with a structured
  :class:`~repro.serving.resilience.WorkerRestartingError` (503,
  ``retry_after_ms`` sized from the backoff) — graceful degradation, not
  a stalled gateway.

Per-worker **bounded queues** (``queue_limit``) sit in front of each
replica: once a worker has that many ops in flight or waiting, further
calls shed with ``overloaded`` instead of queueing without limit — the
per-replica refinement of the gateway's global admission control.

:class:`RaceSessionProxy` (from :meth:`WorkerSupervisor.open_session`)
answers the calls of :class:`~repro.serving.executor.LocalSession` over a
worker-resident session, so the gateway's session bookkeeping
(:class:`~repro.serving.sessions.ManagedSession`) is mode-agnostic.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from . import wire
from .cache import PinnedLRU
from .resilience import DeadlineExceededError, OverloadedError, WorkerRestartingError
from .wire import WireError, emitted_from_wire
from .workers import worker_main

__all__ = ["WorkerSupervisor", "WorkerHandle", "RaceSessionProxy"]

#: worker lifecycle states (see docs/robustness.md for the state machine)
STARTING = "starting"
LIVE = "live"
RESTARTING = "restarting"
FAILED = "failed"


def _fork_context():
    """Prefer fork: near-instant worker spawn, no re-import of the stack."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class WorkerHandle:
    """One supervised replica: process, pipes, lifecycle and counters."""

    def __init__(self, model: str) -> None:
        self.model = str(model)
        self.process = None
        self.work = None  # work pipe (op frames), parent end
        self.control = None  # heartbeat pipe, parent end
        self.state = STARTING
        self.ready = threading.Event()  # set once the initial spawn settles
        #: serializes op frames on the work pipe (one replica = one engine)
        self.op_lock = threading.Lock()
        self.control_lock = threading.Lock()
        self.depth_lock = threading.Lock()
        self.depth = 0  # ops in flight or waiting on op_lock
        self.frame_id = 0
        self.control_frame_id = 0
        self.restarts = 0  # replacements that reached live, lifetime
        self.episode = 0  # consecutive crashes within min_uptime_s
        self.started_at: Optional[float] = None
        self.last_heartbeat: Optional[float] = None
        self.last_failure: Optional[str] = None

    @property
    def pid(self) -> Optional[int]:
        process = self.process
        return None if process is None else process.pid

    def describe(self, pins: int) -> dict:
        now = time.monotonic()
        return {
            "model": self.model,
            "pid": self.pid,
            "state": self.state,
            "restarts": self.restarts,
            "episode": self.episode,
            "queue_depth": self.depth,
            "pinned": pins,
            "uptime_s": None if self.started_at is None else round(now - self.started_at, 3),
            "last_heartbeat_age_s": (
                None if self.last_heartbeat is None else round(now - self.last_heartbeat, 3)
            ),
            "last_failure": self.last_failure,
        }


class WorkerSupervisor:
    """Spawns, health-checks, restarts and routes to model worker replicas."""

    def __init__(
        self,
        store_root: str,
        *,
        capacity: int = 4,
        mode: str = "exact",
        verify: bool = True,
        queue_limit: int = 8,
        restart_budget: int = 3,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        min_uptime_s: float = 1.0,
        heartbeat_interval_s: float = 0.25,
        heartbeat_timeout_s: float = 2.0,
        spawn_timeout_s: float = 60.0,
        on_worker_restarted: Optional[Callable[[str], None]] = None,
    ) -> None:
        self._replicas = PinnedLRU(capacity)  # model -> WorkerHandle
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if restart_budget < 1:
            raise ValueError("restart_budget must be >= 1")
        self.store_root = str(store_root)
        self.queue_limit = int(queue_limit)
        self.restart_budget = int(restart_budget)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.min_uptime_s = float(min_uptime_s)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.spawn_timeout_s = float(spawn_timeout_s)
        self.on_worker_restarted = on_worker_restarted
        self._options = {
            "mode": str(mode),
            "verify": bool(verify),
            "heartbeat_interval_s": self.heartbeat_interval_s,
        }
        self._ctx = _fork_context()
        self._lock = threading.RLock()
        self._closed = False
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._stats = {"spawns": 0, "restarts": 0, "heartbeat_kills": 0, "shed": 0}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def ensure(self, model: str) -> WorkerHandle:
        """The live handle for ``model``, spawning its worker if needed.

        Residency is ``ForecastService.load``'s, one ``PinnedLRU``: all
        slots pinned raises ``ValueError`` (the gateway maps it to
        ``capacity_exhausted``).
        """
        model = str(model)
        victims: List[WorkerHandle] = []
        with self._lock:
            if self._closed:
                raise RuntimeError("worker supervisor is closed")
            handle = self._replicas.hit(model)
            creator = handle is None
            if creator:
                handle = WorkerHandle(model)
                victims = self._replicas.add(model, handle)
        for victim in victims:
            self._kill_process(victim)
        if creator:
            try:
                self._spawn_into(handle)
            except Exception:
                with self._lock:
                    if self._replicas.peek(model) is handle:
                        self._replicas.remove(model)
                handle.state = FAILED
                handle.ready.set()
                self._kill_process(handle)
                raise
            with self._lock:
                handle.state = LIVE
                handle.started_at = time.monotonic()
            handle.ready.set()
            self._ensure_monitor()
            return handle
        if not handle.ready.wait(self.spawn_timeout_s):
            raise RuntimeError(f"worker for model {model!r} never became ready")
        with self._lock:
            if self._replicas.peek(model) is not handle:
                # the concurrent spawn failed and removed the handle
                raise RuntimeError(f"worker for model {model!r} failed to start")
        return handle

    def pin(self, model: str) -> WorkerHandle:
        while True:
            handle = self.ensure(model)
            with self._lock:
                # a concurrent ensure may have evicted it since: pin a live one
                if self._replicas.peek(handle.model) is handle:
                    self._replicas.pin(handle.model)
                    return handle

    def unpin(self, model: str) -> bool:
        with self._lock:
            return self._replicas.unpin(str(model))

    def touch(self, model: str) -> None:
        with self._lock:
            self._replicas.touch(str(model))

    def stop(self, model: str) -> bool:
        """Stop and forget the named replica; pinned replicas refuse."""
        with self._lock:
            handle = self._replicas.remove(str(model))
        if handle is None:
            return False
        self._kill_process(handle)
        return True

    def models(self) -> List[str]:
        """Resident replicas, least-recently-used first."""
        with self._lock:
            return self._replicas.names()

    def pinned(self) -> List[str]:
        with self._lock:
            return self._replicas.pinned()

    def describe(self) -> List[dict]:
        with self._lock:
            handles = sorted(self._replicas.values(), key=lambda h: h.model)
            return [h.describe(self._replicas.pin_count(h.model)) for h in handles]

    @property
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return self._replicas.stats

    @property
    def worker_pool(self) -> Dict[str, int]:
        """The health document's ``worker_pool`` block: pool counters."""
        with self._lock:
            return dict(self._stats)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = self._replicas.clear()
        self._stop.set()
        monitor = self._monitor
        if monitor is not None:
            monitor.join(timeout=5.0)
        for handle in handles:
            self._kill_process(handle)

    # ------------------------------------------------------------------
    # fault injection (the kill_worker / hang_worker fault kinds)
    # ------------------------------------------------------------------
    def kill_worker(self, model: str = "") -> Optional[int]:
        """SIGKILL a live replica (``model`` or any); returns the pid hit."""
        return self._signal_worker(model, signal.SIGKILL)

    def hang_worker(self, model: str = "") -> Optional[int]:
        """SIGSTOP a live replica so it hangs without exiting."""
        return self._signal_worker(model, signal.SIGSTOP)

    def _signal_worker(self, model: str, signum: int) -> Optional[int]:
        with self._lock:
            if model:
                candidates = [self._replicas.peek(str(model))]
            else:
                candidates = sorted(self._replicas.values(), key=lambda h: h.model)
            target = next(
                (h for h in candidates if h is not None and h.state == LIVE and h.pid),
                None,
            )
            pid = None if target is None else target.pid
        if pid is None:
            return None
        try:
            os.kill(pid, signum)
        except ProcessLookupError:  # already gone; the monitor will notice
            return None
        return pid

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def submit(self, model, requests, timeout_s: Optional[float] = None) -> List[np.ndarray]:
        """Route one single-model batch of named requests to its replica."""
        body = {"requests": [wire.named_request_to_wire(named) for named in requests]}
        reply = self._call(model, "forecast", body, timeout_s=timeout_s)
        return [wire.decode_array(spec) for spec in reply["results"]]

    def sweep(self, model, document: dict, timeout_s: Optional[float] = None) -> dict:
        """Forward a raw sweep-request document; returns the results doc."""
        reply = self._call(model, "sweep", {"document": document}, timeout_s=timeout_s)
        return reply["document"]

    def open_session(
        self, model, session_id: str, document: dict, internal: bool = False
    ) -> "RaceSessionProxy":
        """Open a session inside the model's worker; returns its proxy."""
        info = self._call(
            model,
            "session_open",
            {"session_id": str(session_id), "document": document},
            internal=internal,
        )
        return RaceSessionProxy(self, model, session_id, info)

    # ------------------------------------------------------------------
    def _call(
        self,
        model,
        op: str,
        body: dict,
        timeout_s: Optional[float] = None,
        internal: bool = False,
    ) -> dict:
        model = str(model)
        with self._lock:
            handle = self._replicas.peek(model)
        if handle is None:
            handle = self.ensure(model)
        self.touch(model)
        with handle.depth_lock:
            if handle.depth >= self.queue_limit:
                with self._lock:
                    self._stats["shed"] += 1
                raise OverloadedError(
                    f"worker queue for model {model!r} is full "
                    f"({handle.depth} ops in flight, limit {self.queue_limit})",
                    retry_after_ms=max(50, int(100 * handle.depth)),
                )
            handle.depth += 1
        try:
            with handle.op_lock:
                self._check_state(handle, internal)
                return self._exchange(handle, op, body, timeout_s)
        finally:
            with handle.depth_lock:
                handle.depth -= 1

    def _check_state(self, handle: WorkerHandle, internal: bool) -> None:
        with self._lock:
            state = handle.state
            episode = handle.episode
        if state == LIVE or (internal and state == RESTARTING):
            return
        backoff = min(self.backoff_base_s * (2 ** max(episode, 0)), self.backoff_max_s)
        if state == FAILED:
            raise WorkerRestartingError(
                f"worker for model {handle.model!r} exhausted its restart budget "
                f"({self.restart_budget}) and is down: {handle.last_failure}",
                retry_after_ms=5000,
            )
        raise WorkerRestartingError(
            f"worker for model {handle.model!r} is restarting "
            f"({handle.last_failure}); retry shortly",
            retry_after_ms=int(backoff * 1e3) + 50,
        )

    def _exchange(self, handle: WorkerHandle, op: str, body: dict, timeout_s) -> dict:
        # the op is bound to the replica it is sent to: a restart puts a new
        # process and new pipes on ``handle``, and this op must not wait on them
        conn, process = handle.work, handle.process
        handle.frame_id += 1
        frame_id = handle.frame_id
        try:
            conn.send_bytes(
                json.dumps({"id": frame_id, "op": op, "body": body}).encode("utf-8")
            )
        except (OSError, ValueError, AttributeError) as exc:
            self._replica_died(handle, process, f"work pipe closed on send ({exc})")
            raise RuntimeError(
                f"worker for model {handle.model!r} died before accepting {op!r}"
            ) from exc
        deadline_at = None if timeout_s is None else time.monotonic() + float(timeout_s)
        while True:
            step = 0.2
            if deadline_at is not None:
                remaining = deadline_at - time.monotonic()
                if remaining <= 0:
                    # abandon the op: the (serialized) reply, if it ever
                    # comes, is discarded by the next op's frame-id check
                    raise DeadlineExceededError(
                        f"{op!r} on worker for model {handle.model!r} exceeded "
                        "its deadline"
                    )
                step = min(step, remaining)
            try:
                raw = conn.recv_bytes() if conn.poll(step) else None
            except (OSError, EOFError) as exc:
                # a closed (restart already under way) or reset pipe: the
                # replica this op was sent to is gone
                self._replica_died(handle, process, "work pipe closed mid-request")
                raise RuntimeError(
                    f"worker for model {handle.model!r} died executing {op!r}"
                ) from exc
            if raw is not None:
                reply = json.loads(raw.decode("utf-8"))
                if reply.get("id") != frame_id:
                    continue  # stale reply from an op abandoned at its deadline
                if reply.get("ok"):
                    return reply.get("body") or {}
                error = reply.get("error") or {}
                message = str(error.get("message", "worker error"))
                if reply.get("engine_failure"):
                    # surfaces as RuntimeError so the gateway's breaker
                    # attribution counts it against the model
                    raise RuntimeError(
                        f"worker for model {handle.model!r}: {message}"
                    )
                raise WireError(
                    str(error.get("code", "internal_error")),
                    message,
                    status=int(error.get("status", reply.get("status", 500))),
                    detail=error.get("detail"),
                )
            if process is not None and not process.is_alive():
                try:
                    if conn.poll(0):  # a reply raced the death — read it
                        continue
                except (OSError, EOFError):
                    pass
                self._replica_died(handle, process, "process exited mid-request")
                raise RuntimeError(
                    f"worker for model {handle.model!r} died executing {op!r}"
                )

    def _replica_died(self, handle: WorkerHandle, process, reason: str) -> None:
        """Declare ``handle`` dead unless a restart already replaced ``process``."""
        if handle.process is process:
            self._declare_dead(handle, reason)

    # ------------------------------------------------------------------
    # spawning / heartbeats / restarts
    # ------------------------------------------------------------------
    def _spawn_into(self, handle: WorkerHandle) -> None:
        """Start a fresh process for ``handle`` and wait for readiness."""
        work_parent, work_child = self._ctx.Pipe()
        control_parent, control_child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(work_child, control_child, self.store_root, handle.model, self._options),
            name=f"repro-worker-{handle.model}",
            daemon=True,
        )
        process.start()
        work_child.close()
        control_child.close()
        handle.process = process
        handle.work = work_parent
        handle.control = control_parent
        with self._lock:
            self._stats["spawns"] += 1
        deadline_at = time.monotonic() + self.spawn_timeout_s
        while True:
            if self._ping(handle, timeout=0.25):
                return
            if not process.is_alive():
                raise RuntimeError(
                    f"worker for model {handle.model!r} exited during startup "
                    f"(exitcode {process.exitcode})"
                )
            if time.monotonic() > deadline_at:
                raise RuntimeError(
                    f"worker for model {handle.model!r} never answered its "
                    f"readiness ping within {self.spawn_timeout_s:.0f}s"
                )

    def _ping(self, handle: WorkerHandle, timeout: float) -> bool:
        conn = handle.control
        if conn is None:
            return False
        with handle.control_lock:
            handle.control_frame_id += 1
            frame_id = handle.control_frame_id
            try:
                conn.send_bytes(json.dumps({"id": frame_id}).encode("utf-8"))
            except (OSError, ValueError):
                return False
            deadline_at = time.monotonic() + float(timeout)
            while True:
                remaining = deadline_at - time.monotonic()
                if remaining <= 0:
                    return False
                try:
                    if not conn.poll(remaining):
                        return False
                    reply = json.loads(conn.recv_bytes().decode("utf-8"))
                except (OSError, EOFError, ValueError):
                    return False
                if reply.get("id") == frame_id:
                    handle.last_heartbeat = time.monotonic()
                    return True
                # stale pong from a ping that timed out earlier

    def _ensure_monitor(self) -> None:
        with self._lock:
            if self._monitor is not None or self._closed:
                return
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="worker-heartbeat-monitor", daemon=True
            )
            self._monitor.start()

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval_s):
            with self._lock:
                live = [h for h in self._replicas.values() if h.state == LIVE]
            for handle in live:
                process = handle.process
                if process is None:
                    continue
                if not process.is_alive():
                    self._declare_dead(handle, "process exited")
                    continue
                if not self._ping(handle, timeout=self.heartbeat_timeout_s):
                    # the heartbeat deadline: a hung replica (SIGSTOP, a
                    # wedged runtime) cannot answer — escalate to SIGKILL
                    # (which lands even on a stopped process) and restart
                    with self._lock:
                        self._stats["heartbeat_kills"] += 1
                    self._declare_dead(handle, "heartbeat deadline missed")

    def _declare_dead(self, handle: WorkerHandle, reason: str) -> None:
        with self._lock:
            if self._closed or handle.state in (RESTARTING, FAILED):
                return
            if self._replicas.peek(handle.model) is not handle:
                return  # already stopped/evicted
            handle.state = RESTARTING
            handle.last_failure = reason
            now = time.monotonic()
            if handle.started_at is not None and now - handle.started_at >= self.min_uptime_s:
                # the replica was healthy long enough: a fresh failure episode
                handle.episode = 0
            handle.episode += 1
        threading.Thread(
            target=self._restart_loop,
            args=(handle,),
            name=f"worker-restart-{handle.model}",
            daemon=True,
        ).start()

    def _restart_loop(self, handle: WorkerHandle) -> None:
        model = handle.model
        while True:
            with self._lock:
                if self._closed or self._replicas.peek(model) is not handle:
                    break
                episode = handle.episode
                if episode > self.restart_budget:
                    handle.state = FAILED
                    handle.last_failure = (
                        f"{handle.last_failure} (restart budget "
                        f"{self.restart_budget} exhausted after {episode - 1} restarts)"
                    )
                    break
            # exponential backoff before touching the corpse
            time.sleep(min(self.backoff_base_s * (2 ** max(episode - 1, 0)), self.backoff_max_s))
            with self._lock:
                # the supervisor may have been closed (or the replica
                # stopped/evicted) during the backoff sleep — never respawn
                # a worker nobody owns
                if self._closed or self._replicas.peek(model) is not handle:
                    break
            self._kill_process(handle)
            try:
                self._spawn_into(handle)
                if self.on_worker_restarted is not None:
                    # journal failover runs before the replica goes live, so
                    # no external op can interleave with the replay
                    try:
                        self.on_worker_restarted(model)
                    except Exception:  # the gateway records its own errors
                        pass
            except Exception as exc:
                with self._lock:
                    handle.episode += 1
                    handle.last_failure = f"restart failed: {exc}"
                continue
            with self._lock:
                handle.restarts += 1
                self._stats["restarts"] += 1
                handle.state = LIVE
                handle.started_at = time.monotonic()
                handle.last_heartbeat = time.monotonic()
            return
        self._kill_process(handle)

    def _kill_process(self, handle: WorkerHandle) -> None:
        process = handle.process
        if process is not None:
            pid = process.pid
            if process.is_alive() and pid is not None:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            process.join(timeout=5.0)
        for conn in (handle.work, handle.control):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        handle.work = None
        handle.control = None


# ----------------------------------------------------------------------
# the gateway's mode-agnostic session view
# ----------------------------------------------------------------------
class RaceSessionProxy:
    """:class:`~repro.serving.executor.LocalSession`'s calls over a worker-resident session.

    The gateway's :class:`~repro.serving.sessions.ManagedSession` and its
    ``describe()`` read plain counters; the proxy refreshes them from
    every worker reply.  The replay-vs-observe decision lives in the
    worker's real session (``apply_lap``), never here — after a failover
    the proxy's counters can lag the rebuilt session, and only the
    session itself knows whether a lap is a duplicate.
    """

    def __init__(self, supervisor: WorkerSupervisor, model: str, session_id: str, info: dict):
        self._supervisor = supervisor
        self.model = str(model)
        self.session_id = str(session_id)
        self._refresh(info)

    def _refresh(self, info: dict) -> None:
        self.latest_lap = int(info.get("latest_lap", -1))
        self.next_origin = int(info.get("next_origin", 0))
        self.laps_observed = int(info.get("laps_observed", 0))
        self.forecasts_emitted = int(info.get("forecasts_emitted", 0))
        self.num_cars = int(info.get("cars", 0))

    # ------------------------------------------------------------------
    def apply_lap(self, lap, records, timeout_s=None, internal: bool = False):
        reply = self._supervisor._call(
            self.model,
            "session_lap",
            {
                "session_id": self.session_id,
                "lap": lap,
                # normalise LapRecord-style objects so in-process callers
                # can feed the pipe exactly like HTTP clients do
                "records": [wire.lap_record_to_wire(record) for record in records],
            },
            timeout_s=timeout_s,
            internal=internal,
        )
        self._refresh(reply)
        return emitted_from_wire(reply["results"]), bool(reply["replayed"])

    def finish(self, drain: bool = True):
        reply = self._supervisor._call(
            self.model, "session_finish", {"session_id": self.session_id, "drain": bool(drain)}
        )
        self._refresh(reply)
        return emitted_from_wire(reply["results"])

    def drop(self) -> None:
        try:
            self._supervisor._call(self.model, "session_drop", {"session_id": self.session_id})
        except Exception:  # rollback path: the worker may be mid-restart
            pass
