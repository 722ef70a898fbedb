"""Worker-process side of the supervised model pool.

One worker process serves exactly one model replica: the in-process
gateway's :class:`~repro.serving.executor.LocalExecutor` over a private
single-slot :class:`~repro.serving.service.ForecastService` (its own fleet
engine, warm-up caches and live sessions), behind length-framed JSON over
two ``multiprocessing`` pipes back to the gateway:

* the **work pipe** carries one op frame at a time —
  ``{"id": n, "op": name, "body": {...}}`` in, ``{"id": n, "ok": true,
  "body": {...}}`` (or a structured error) out.  Payloads ride the
  existing wire codecs (:mod:`repro.serving.wire`): named forecast
  requests with explicit RNG transport, base64 sample arrays, verbatim
  ``session-open`` documents.  The op handlers only decode and encode
  frames; the work is the executor's, so a forecast through a worker is
  byte-identical to the in-process path and fails with the same wire
  errors — which is what lets the supervisor fail sessions over to a
  *replacement* process by journal replay.
* the **control pipe** answers heartbeat pings from a dedicated daemon
  thread, so a worker grinding through a long sweep still proves it is
  alive — only a genuinely stuck process (SIGSTOP, a wedged allocator)
  misses the supervisor's heartbeat deadline.

Error replies carry the gateway's breaker attribution
(:func:`~repro.serving.executor.is_engine_failure`) as an
``engine_failure`` flag.

The module is transport only — no supervision state lives here.  The
gateway-side :class:`~repro.serving.supervisor.WorkerSupervisor` owns
spawning, heartbeat deadlines, restarts and failover.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from typing import Dict, Optional

from . import wire
from .executor import LocalExecutor, LocalSession, is_engine_failure
from .service import ForecastService
from .sessions import session_counters
from .wire import WireError

__all__ = ["worker_main"]


# ----------------------------------------------------------------------
# pipe framing
# ----------------------------------------------------------------------
def _send(conn, frame: dict) -> bool:
    try:
        conn.send_bytes(json.dumps(frame).encode("utf-8"))
        return True
    except (OSError, ValueError, BrokenPipeError):
        return False


def _recv(conn) -> Optional[dict]:
    try:
        return json.loads(conn.recv_bytes().decode("utf-8"))
    except (EOFError, OSError):
        return None


def _serve_control(control) -> None:
    """Answer heartbeat pings until the gateway hangs up.

    Runs on a daemon thread so a long engine pass on the main loop never
    reads as a missed heartbeat — only a process that is truly stuck
    (stopped, wedged) stops answering.
    """
    while True:
        frame = _recv(control)
        if frame is None:
            return
        if not _send(control, {"id": frame.get("id"), "op": "pong", "pid": os.getpid()}):
            return


# ----------------------------------------------------------------------
# the worker process entry point
# ----------------------------------------------------------------------
class _WorkerState:
    """One worker's executor plus its resident live sessions."""

    def __init__(self, store_root: str, model: str, options: dict) -> None:
        self.model = str(model)
        self.executor = LocalExecutor(
            ForecastService(
                store_root,
                capacity=1,
                mode=str(options.get("mode", "exact")),
                verify=bool(options.get("verify", True)),
            )
        )
        self.executor.ensure(self.model)
        self.sessions: Dict[str, LocalSession] = {}

    # ------------------------------------------------------------------
    def _session(self, session_id: str) -> LocalSession:
        session = self.sessions.get(session_id)
        if session is None:
            raise WireError(
                "unknown_session",
                f"worker for model {self.model!r} holds no session {session_id!r}",
                status=404,
            )
        return session

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def op_forecast(self, body: dict) -> dict:
        named = [wire.named_request_from_wire(item) for item in body.get("requests", [])]
        results = self.executor.submit(self.model, named)
        return {"results": [wire.encode_array(samples) for samples in results]}

    def op_sweep(self, body: dict) -> dict:
        # the raw sweep-request wire document, forwarded verbatim
        return {"document": self.executor.sweep(self.model, body.get("document"))}

    def op_session_open(self, body: dict) -> dict:
        session_id = str(body.get("session_id"))
        if session_id in self.sessions:
            raise WireError(
                "invalid_request",
                f"worker already holds session {session_id!r}",
            )
        document = body.get("document")
        if not isinstance(document, dict):
            raise WireError("malformed_request", "session_open needs a 'document'")
        session = self.executor.open_session(self.model, session_id, document)
        self.sessions[session_id] = session
        return session_counters(session)

    def op_session_lap(self, body: dict) -> dict:
        session = self._session(str(body.get("session_id")))
        emitted, replayed = session.apply_lap(body.get("lap"), body.get("records"))
        return {
            "results": wire.emitted_to_wire(emitted),
            "replayed": bool(replayed),
            **session_counters(session),
        }

    def op_session_finish(self, body: dict) -> dict:
        session_id = str(body.get("session_id"))
        session = self._session(session_id)
        # forgotten before the drain: the gateway has already deregistered
        # the session, so a failed drain must not leave it resident here
        del self.sessions[session_id]
        remaining = session.finish(bool(body.get("drain", True)))
        return {"results": wire.emitted_to_wire(remaining), **session_counters(session)}

    def op_session_drop(self, body: dict) -> dict:
        # rollback path (the gateway-side registration failed): discard
        # quietly, dropping an unknown id is not an error
        dropped = self.sessions.pop(str(body.get("session_id")), None) is not None
        return {"dropped": dropped}


def _error_reply(frame_id, exc: BaseException) -> dict:
    status, document = wire.error_to_wire(exc)
    return {
        "id": frame_id,
        "ok": False,
        "error": document["error"],
        "status": int(status),
        "engine_failure": is_engine_failure(exc),
    }


def worker_main(work, control, store_root: str, model: str, options: Optional[dict] = None) -> None:
    """Serve one model replica over the given pipes until the gateway hangs up.

    Runs as the target of a forked ``multiprocessing.Process``; any
    exception during model load is fatal (the supervisor's readiness
    deadline catches the death and applies its restart budget).
    """
    options = dict(options or {})
    # the forked child inherits the parent's signal dispositions (the CLI
    # installs a SIGTERM drain handler); workers must die plainly instead
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_serve_control, args=(control,), name="worker-heartbeat", daemon=True
    ).start()
    state = _WorkerState(store_root, model, options)
    handlers = {
        "forecast": state.op_forecast,
        "sweep": state.op_sweep,
        "session_open": state.op_session_open,
        "session_lap": state.op_session_lap,
        "session_finish": state.op_session_finish,
        "session_drop": state.op_session_drop,
    }
    while True:
        frame = _recv(work)
        if frame is None:  # gateway is gone; nothing to serve for
            return
        frame_id = frame.get("id")
        handler = handlers.get(frame.get("op"))
        if handler is None:
            reply = _error_reply(
                frame_id, WireError("invalid_request", f"unknown worker op {frame.get('op')!r}")
            )
        else:
            try:
                reply = {"id": frame_id, "ok": True, "body": handler(frame.get("body") or {})}
            except BaseException as exc:  # noqa: BLE001 - every failure crosses the pipe structured
                reply = _error_reply(frame_id, exc)
        if not _send(work, reply):
            return
