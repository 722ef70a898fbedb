"""Stdlib HTTP client for the ``repro-serve`` gateway.

:class:`ForecastClient` speaks the ``v1`` wire protocol
(:mod:`repro.serving.wire`) over plain :mod:`http.client` — no third-party
dependencies, mirroring the server side.  It is the reference consumer
used by the tests, the examples, the serving benchmark and the CI smoke
step.

Reproducibility contract: every forecast request must carry its own RNG
stream (an integer seed or a live ``numpy`` ``Generator``), which the wire
protocol transports explicitly — the samples that come back are bitwise
identical to submitting the same request in-process, no matter how the
server's micro-batch scheduler coalesced it with other clients' traffic.

Resilience (:mod:`repro.serving.resilience`): the client owns the *retry*
half of the fault-tolerance story —

* ``timeout_s`` bounds every socket operation, so a hung gateway is a
  structured failure, not a hang;
* a :class:`~repro.serving.resilience.RetryPolicy` retries connection
  failures and retryable server envelopes (``overloaded``,
  ``circuit_open``, ``worker_restarting`` — a model replica mid-respawn
  after a crash — and other 5xx) on a *seeded* backoff schedule,
  honouring the server's ``retry_after_ms`` hints, so a worker restart
  is a short stall on the client, never an error surfaced to the caller;
* retried POSTs carry ``idempotency_key``s, so a request whose response
  was lost (not its execution) is answered from the server's replay cache
  — the retried result is byte-identical to the single-send result;
* ``deadline_ms`` rides along as the server-side budget of each request;
* :meth:`ForecastClient.run_scenario_iter` resumes a torn NDJSON stream
  from the last received event (``resume_from``) instead of starting
  over or double-yielding;
* a client-side :class:`~repro.serving.faults.FaultPlan` injects
  connection drops/delays deterministically, which is how the chaos
  harness proves all of the above.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import uuid
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..data.features import CarFeatureSeries
from . import wire
from .faults import FaultPlan
from .requests import ForecastRequest, NamedForecastRequest
from .resilience import RetryPolicy, sleep_schedule
from .wire import WireError

__all__ = ["ForecastClient", "LiveSessionClient", "ServerError"]


class ServerError(RuntimeError):
    """An error envelope returned by the gateway, surfaced client-side."""

    def __init__(self, code: str, message: str, status: int = 400, detail=None) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.status = status
        self.detail = detail

    @classmethod
    def from_wire_error(cls, exc: WireError) -> "ServerError":
        return cls(exc.code, str(exc), status=exc.status, detail=exc.detail)

    @property
    def retry_after_ms(self) -> Optional[int]:
        """The server's backoff hint, when the envelope carried one."""
        if isinstance(self.detail, dict) and "retry_after_ms" in self.detail:
            return int(self.detail["retry_after_ms"])
        return None


class ForecastClient:
    """Thin, connection-per-call client for one gateway endpoint.

    Parameters
    ----------
    timeout_s:
        Socket timeout applied to every connection the client opens (the
        legacy ``timeout`` alias is accepted and means the same thing).
    retry:
        A :class:`~repro.serving.resilience.RetryPolicy`; ``None`` (the
        default) disables retries — every failure surfaces immediately.
    deadline_ms:
        Default server-side time budget attached to forecast/sweep/lap
        requests (the server sheds work still queued past the budget).
    faults:
        A client-side :class:`~repro.serving.faults.FaultPlan` for
        deterministic chaos runs (connection drops, delays).
    client_id:
        Stable prefix for generated idempotency keys; defaults to a fresh
        random token per client instance.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        timeout: float = 60.0,
        timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        deadline_ms: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        client_id: Optional[str] = None,
    ) -> None:
        self.host = str(host)
        self.port = int(port)
        self.timeout_s = float(timeout if timeout_s is None else timeout_s)
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be > 0 seconds")
        self.retry = retry
        self.deadline_ms = None if deadline_ms is None else float(deadline_ms)
        self.faults = faults
        self._token = str(client_id) if client_id else uuid.uuid4().hex[:12]
        self._key_lock = threading.Lock()
        self._key_counter = 0

    @property
    def timeout(self) -> float:
        """Back-compat alias of :attr:`timeout_s`."""
        return self.timeout_s

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def next_idempotency_key(self, kind: str) -> str:
        """A fresh key, unique across clients, stable across one call's retries."""
        with self._key_lock:
            self._key_counter += 1
            return f"{self._token}-{kind}-{self._key_counter}"

    def _call(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        timeout_s: Optional[float] = None,
    ) -> dict:
        """One request with the retry policy applied.

        Only *safe* calls retry: GETs, and POSTs carrying an
        ``idempotency_key`` (the server's replay cache makes re-sending
        them indistinguishable from a single send).  Anything else fails
        on the first error — retrying a non-idempotent request could
        execute it twice.
        """
        retry_safe = method == "GET" or (
            isinstance(payload, dict) and payload.get("idempotency_key") is not None
        )
        delays = sleep_schedule(self.retry) if retry_safe else []
        attempt = 0
        while True:
            try:
                return self._call_once(method, path, payload, timeout_s=timeout_s)
            except ServerError as exc:
                hint = exc.retry_after_ms
                if (
                    not retry_safe
                    or attempt >= len(delays)
                    or not RetryPolicy.retryable_status(exc.status, exc.code)
                ):
                    raise
            except (OSError, http.client.HTTPException):
                # covers refused/reset/timed-out sockets and torn responses
                hint = None
                if not retry_safe or attempt >= len(delays):
                    raise
            delay = delays[attempt]
            if hint is not None:
                # honour the server's hint, bounded by the policy's ceiling
                delay = max(delay, min(hint / 1e3, self.retry.max_delay_s))
            if delay > 0:
                time.sleep(delay)
            attempt += 1

    def _client_fault(self, method: str, path: str):
        """Client-side ``before`` faults; returns the spec for ``after`` drops."""
        if self.faults is None:
            return None
        fault = self.faults.intercept(method, path)
        if fault is None:
            return None
        if fault.kind == "delay":
            time.sleep(fault.delay_s)
            return None
        if fault.kind == "error":
            raise ServerError("injected_fault", fault.message, status=fault.status)
        if fault.kind == "drop" and fault.when == "before":
            raise ConnectionError(f"injected connection drop before {method} {path}")
        return fault

    def _call_once(
        self,
        method: str,
        path: str,
        payload: Optional[dict],
        timeout_s: Optional[float] = None,
    ) -> dict:
        fault = self._client_fault(method, path)
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s if timeout_s is None else timeout_s
        )
        try:
            body = None if payload is None else json.dumps(payload).encode("utf-8")
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        if fault is not None and fault.kind == "drop":
            # when="after": the server did the work, the response is lost
            # on the wire — exactly the case idempotency keys dedupe
            raise ConnectionError(
                f"injected connection drop after {method} {path} (response lost)"
            )
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServerError(
                "malformed_response",
                f"server returned non-JSON payload (HTTP {response.status}): {exc}",
                status=response.status,
            ) from exc
        try:
            wire.raise_for_error(document)
            wire.check_envelope(document)
        except WireError as exc:
            raise ServerError.from_wire_error(exc) from None
        return document

    # ------------------------------------------------------------------
    # models
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._call("GET", "/v1/health")

    def models(self) -> List[dict]:
        """The server's model catalog (name, family, loaded/pinned, ...)."""
        return self._call("GET", "/v1/models")["models"]

    def loaded(self) -> List[str]:
        return self._call("GET", "/v1/models")["loaded"]

    def load(self, name: str) -> dict:
        return self._call("POST", f"/v1/models/{name}/load")

    def unload(self, name: str) -> bool:
        return bool(self._call("POST", f"/v1/models/{name}/unload")["unloaded"])

    # ------------------------------------------------------------------
    # champion/challenger aliases (wire schema v6)
    # ------------------------------------------------------------------
    def aliases(self) -> Dict[str, str]:
        """All catalog aliases as ``{alias: target artifact name}``."""
        document = self._call("GET", "/v1/models/aliases")
        return {entry["alias"]: entry["target"] for entry in document["aliases"]}

    def resolve(self, alias: str) -> str:
        """The artifact name ``alias`` currently points at."""
        return str(self._call("GET", f"/v1/models/aliases/{alias}")["target"])

    def promote(self, alias: str, target: str, note: str = "") -> dict:
        """Point ``alias`` at ``target`` (journaled; warms the new replica)."""
        payload = wire.envelope("alias-promote", target=target)
        if note:
            payload["note"] = note
        return self._call("POST", f"/v1/models/aliases/{alias}/promote", payload)

    def rollback(self, alias: str) -> dict:
        """One-call revert of ``alias`` to the previous champion."""
        return self._call("POST", f"/v1/models/aliases/{alias}/rollback")

    # ------------------------------------------------------------------
    # forecasting
    # ------------------------------------------------------------------
    @staticmethod
    def request(
        model: str,
        history_target,
        history_covariates,
        future_covariates,
        n_samples: int = 100,
        rng: Union[np.random.Generator, int, None] = None,
        key=None,
        origin: Optional[int] = None,
        precision: str = "float64",
    ) -> NamedForecastRequest:
        """Build one named request (``rng`` seed/stream is mandatory).

        ``precision`` picks the compute tier (``"float64"`` — the exact
        reference, ``"float32"`` or ``"int8"``; see
        :mod:`repro.nn.precision`).
        """
        if rng is None:
            raise ValueError(
                "a per-request rng (integer seed or numpy Generator) is required: "
                "it is what makes the forecast reproducible regardless of how the "
                "server batches it"
            )
        return NamedForecastRequest(
            model=model,
            precision=precision,
            request=ForecastRequest(
                history_target=history_target,
                history_covariates=history_covariates,
                future_covariates=future_covariates,
                n_samples=n_samples,
                rng=rng,
                key=key,
                origin=origin,
            ),
        )

    def forecast(
        self,
        requests: Sequence[NamedForecastRequest],
        raise_errors: bool = True,
        deadline_ms: Optional[float] = None,
    ) -> List[Union[np.ndarray, ServerError]]:
        """Submit a batch of named requests; samples come back in order.

        With ``raise_errors=False`` failed requests are returned as
        :class:`ServerError` values in their slots instead of raising.
        The batch carries a generated ``idempotency_key``, so retries
        (when a :class:`RetryPolicy` is configured) return the same bytes
        as a single send even if the first response was lost.
        """
        payload = wire.forecast_batch_to_wire(
            requests,
            idempotency_key=self.next_idempotency_key("forecast"),
            deadline_ms=self.deadline_ms if deadline_ms is None else deadline_ms,
        )
        document = self._call("POST", "/v1/forecast", payload)
        entries = self._retry_failed_entries(
            requests, list(wire.results_from_wire(document)), deadline_ms
        )
        outcomes: List[Union[np.ndarray, ServerError]] = []
        for entry in entries:
            if isinstance(entry, WireError):
                error = ServerError.from_wire_error(entry)
                if raise_errors:
                    raise error
                outcomes.append(error)
            else:
                outcomes.append(entry)
        return outcomes

    def _retry_failed_entries(self, requests, entries, deadline_ms):
        """Re-submit retryable per-request failures on the seeded schedule.

        Entry-level errors — ``worker_restarting`` while the supervisor
        respawns a crashed replica, ``overloaded`` from a full worker
        queue — come back *inside* a 200 results envelope, so the
        transport-level retry in :meth:`_call` never sees them.  The
        failed slots are re-sent as a fresh batch under a fresh
        idempotency key (the original key would just replay the cached
        errors), honouring the largest ``retry_after_ms`` hint.  Safe by
        the RNG-transport contract: a re-submission returns exactly the
        bytes the first attempt would have.
        """
        if self.retry is None:
            return entries
        for delay in sleep_schedule(self.retry):
            failed = [
                index
                for index, entry in enumerate(entries)
                if isinstance(entry, WireError)
                and RetryPolicy.retryable_status(entry.status, entry.code)
            ]
            if not failed:
                break
            hints = [
                entries[index].detail["retry_after_ms"]
                for index in failed
                if isinstance(entries[index].detail, dict)
                and "retry_after_ms" in entries[index].detail
            ]
            if hints:
                delay = max(delay, min(max(hints) / 1e3, self.retry.max_delay_s))
            time.sleep(delay)
            payload = wire.forecast_batch_to_wire(
                [requests[index] for index in failed],
                idempotency_key=self.next_idempotency_key("forecast"),
                deadline_ms=self.deadline_ms if deadline_ms is None else deadline_ms,
            )
            document = self._call("POST", "/v1/forecast", payload)
            for slot, entry in zip(failed, wire.results_from_wire(document)):
                entries[slot] = entry
        return entries

    # ------------------------------------------------------------------
    # what-if scenarios (streamed)
    # ------------------------------------------------------------------
    def scenario_stream(self, spec_document: dict, seed: int, resume_from: int = 0):
        """``POST /v1/scenarios``: yield raw wire events as the server streams.

        The gateway answers with chunked NDJSON; ``http.client`` undoes the
        chunking transparently, so each ``readline`` is one wire document:
        ``scenario-start``, then one ``scenario-race`` per completed race,
        then ``scenario-summary``.  Mid-run failures arrive as a trailing
        ``error`` document and raise :class:`ServerError` here.  A stream
        cut before its terminating chunk (a crashed or faulted gateway)
        raises a structured ``truncated_stream`` error — never a hang and
        never silent truncation; ``resume_from`` asks the server to skip
        the first N events of the (deterministic) re-run.
        """
        payload = wire.scenario_request_to_wire(spec_document, seed, resume_from=resume_from)
        self._client_fault("POST", "/v1/scenarios")
        connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout_s)
        received = 0
        try:
            connection.request(
                "POST",
                "/v1/scenarios",
                body=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            if response.status != 200:  # refused before streaming began
                document = json.loads(response.read().decode("utf-8"))
                try:
                    wire.raise_for_error(document)
                except WireError as exc:
                    raise ServerError.from_wire_error(exc) from None
                raise ServerError(
                    "malformed_response",
                    f"server answered HTTP {response.status} without an error envelope",
                    status=response.status,
                )
            # NB: not response.readline() — its chunked peek() path swallows
            # the IncompleteRead of a torn socket or a garbled chunk-size
            # line and reports a clean EOF instead.  read1() propagates the
            # decode error, so buffer lines over it ourselves: b"" then
            # means the terminating 0-chunk really was seen.
            buffered = b""
            while True:
                newline = buffered.find(b"\n")
                if newline < 0:
                    try:
                        block = response.read1(65536)
                    except (http.client.HTTPException, OSError) as exc:
                        raise ServerError(
                            "truncated_stream",
                            f"scenario stream torn after {received} event(s): {exc}",
                            status=503,
                        ) from exc
                    if not block:
                        if buffered.strip():
                            raise ServerError(
                                "truncated_stream",
                                f"scenario stream ended after {received} event(s) "
                                "with a partial trailing line",
                                status=503,
                            )
                        break
                    buffered += block
                    continue
                line = buffered[:newline].strip()
                buffered = buffered[newline + 1 :]
                if not line:
                    continue
                try:
                    document = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise ServerError(
                        "malformed_response", f"non-JSON stream line: {exc}"
                    ) from exc
                try:
                    wire.raise_for_error(document)
                    wire.check_envelope(document)
                except WireError as exc:
                    raise ServerError.from_wire_error(exc) from None
                received += 1
                yield document
        finally:
            connection.close()

    @staticmethod
    def _decode_event(document: dict) -> Tuple[str, object]:
        kind = document.get("kind")
        if kind == "scenario-start":
            return "start", document
        if kind == "scenario-race":
            return "race", wire.scenario_race_from_wire(document)
        if kind == "scenario-summary":
            return "summary", wire.scenario_summary_from_wire(document)
        raise ServerError("malformed_response", f"unexpected stream event kind {kind!r}")

    def run_scenario_iter(self, spec_document: dict, seed: int):
        """Decoded streaming view: yields ``(kind, payload)`` tuples.

        ``("start", info dict)``, then ``("race", ScenarioRaceResult)`` per
        race, then ``("summary", ScenarioSummary)``.

        With a :class:`RetryPolicy` configured, a ``truncated_stream``
        failure (or a refused reconnect) resumes from the last event
        received: the server re-runs the deterministic scenario and skips
        the events this iterator already yielded, so the concatenation of
        attempts is event-for-event identical to an unbroken stream — no
        duplicates, no holes.
        """
        delays = sleep_schedule(self.retry)
        received = 0
        attempt = 0
        while True:
            saw_summary = False
            try:
                for document in self.scenario_stream(
                    spec_document, seed, resume_from=received
                ):
                    received += 1
                    event = self._decode_event(document)
                    saw_summary = saw_summary or event[0] == "summary"
                    yield event
            except ServerError as exc:
                retryable = exc.code == "truncated_stream" or RetryPolicy.retryable_status(
                    exc.status, exc.code
                )
                if not retryable or attempt >= len(delays):
                    raise
                hint = exc.retry_after_ms
            except (OSError, http.client.HTTPException):
                if attempt >= len(delays):
                    raise
                hint = None
            else:
                if saw_summary:
                    return
                # the server ended the stream cleanly but never sent the
                # summary (it drained the connection mid-run)
                if attempt >= len(delays):
                    raise ServerError(
                        "truncated_stream",
                        f"scenario stream ended after {received} event(s) "
                        "without a summary",
                        status=503,
                    )
                hint = None
            delay = delays[attempt]
            if hint is not None:
                delay = max(delay, min(hint / 1e3, self.retry.max_delay_s))
            if delay > 0:
                time.sleep(delay)
            attempt += 1

    def run_scenario(self, spec_document: dict, seed: int):
        """Run a scenario to completion: ``(race results, summary)``.

        Byte-identical (document-for-document) to the in-process
        ``repro-scenarios`` run of the same spec under the same seed.
        """
        results, summary = [], None
        for kind, payload in self.run_scenario_iter(spec_document, seed):
            if kind == "race":
                results.append(payload)
            elif kind == "summary":
                summary = payload
        if summary is None:
            raise ServerError("malformed_response", "scenario stream ended without a summary")
        return results, summary

    # ------------------------------------------------------------------
    # strategy sweeps
    # ------------------------------------------------------------------
    def sweep(
        self,
        model: str,
        series: CarFeatureSeries,
        origins: Sequence[int],
        horizon: int,
        rng: Union[np.random.Generator, int, None] = None,
        deadline_ms: Optional[float] = None,
        **options,
    ) -> List:
        """Run ``PitStrategyOptimizer.sweep`` on the served model.

        ``options`` forwards ``earliest``/``latest``/``step``/``mode``/
        ``n_samples``/``field_size``/``precision`` (compute tier; the
        default ``"float64"`` sweep stays bitwise).  Returns ``StrategySweepPoint``
        objects bitwise equal to the in-process sweep seeded with the same
        ``rng``.
        """
        payload = wire.sweep_request_to_wire(
            model,
            series,
            origins,
            horizon,
            rng=rng,
            idempotency_key=self.next_idempotency_key("sweep"),
            deadline_ms=self.deadline_ms if deadline_ms is None else deadline_ms,
            **options,
        )
        return wire.sweep_points_from_wire(self._call("POST", "/v1/strategy/sweep", payload))

    # ------------------------------------------------------------------
    # live sessions
    # ------------------------------------------------------------------
    def sessions(self) -> List[dict]:
        return self._call("GET", "/v1/sessions")["sessions"]

    def open_session(
        self,
        model: str,
        horizon: int = 2,
        n_samples: int = 50,
        min_history: int = 10,
        rng: Union[np.random.Generator, int, None] = None,
        delay: Optional[int] = None,
        start: Optional[int] = None,
        stop: Optional[int] = None,
        stride: int = 1,
        event: str = "live",
        year: int = 0,
        precision: str = "float64",
        timeout_s: Optional[float] = None,
    ) -> "LiveSessionClient":
        """Open a server-side race session and return its streaming handle.

        ``precision`` picks the compute tier every lap-streamed forecast of
        this session runs on (the default ``"float64"`` keeps the session
        byte-identical to previous protocol revisions).
        """
        if rng is None:
            raise ValueError(
                "a session rng (integer seed or numpy Generator) is required: "
                "it is what makes the lap-streamed forecasts reproducible"
            )
        payload = wire.envelope(
            "session-open",
            model=model,
            horizon=int(horizon),
            n_samples=int(n_samples),
            min_history=int(min_history),
            rng=wire.rng_to_wire(rng),
            delay=delay,
            start=start,
            stop=stop,
            stride=int(stride),
            event=str(event),
            year=int(year),
            precision=str(precision),
        )
        payload["idempotency_key"] = self.next_idempotency_key("open")
        document = self._call("POST", "/v1/sessions", payload)
        return LiveSessionClient(self, document["session"], info=document, timeout_s=timeout_s)


# canonical encoder lives in the wire module; kept under the old private
# name because session tooling imports it from here
_lap_record_to_wire = wire.lap_record_to_wire


class LiveSessionClient:
    """Client handle of one open server-side session: stream laps, read forecasts.

    ``timeout_s`` overrides the owning client's socket timeout for this
    session's calls.  Lap posts carry the deterministic idempotency key
    ``"<session>-lap-<lap>"``: a retried lap (lost response, or a gateway
    that crashed and recovered from its journal) is answered with the
    original forecasts, byte for byte, instead of an out-of-order error.
    """

    def __init__(
        self,
        client: ForecastClient,
        session_id: str,
        info: Optional[dict] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        self.client = client
        self.session_id = str(session_id)
        self.info = dict(info or {})
        self.timeout_s = None if timeout_s is None else float(timeout_s)
        self.closed = False

    def lap(
        self, lap: int, records: Iterable, deadline_ms: Optional[float] = None
    ) -> List[Tuple[int, Dict[int, np.ndarray]]]:
        """Feed one lap of telemetry; returns the newly-final forecasts.

        Same shape as ``RaceSession.observe_lap``:
        ``[(origin, {car_id: (n_samples, horizon) samples}), ...]``.
        """
        payload = wire.envelope(
            "session-lap",
            lap=int(lap),
            records=[_lap_record_to_wire(record) for record in records],
        )
        payload["idempotency_key"] = f"{self.session_id}-lap-{int(lap)}"
        if deadline_ms is None:
            deadline_ms = self.client.deadline_ms
        if deadline_ms is not None:
            payload["deadline_ms"] = float(deadline_ms)
        document = self.client._call(
            "POST",
            f"/v1/sessions/{self.session_id}/lap",
            payload,
            timeout_s=self.timeout_s,
        )
        return self._decode_results(document)

    def close(self, drain: bool = True) -> List[Tuple[int, Dict[int, np.ndarray]]]:
        """Close the session; by default the held-back tail origins flush."""
        document = self.client._call(
            "DELETE",
            f"/v1/sessions/{self.session_id}",
            {"drain": bool(drain)},
            timeout_s=self.timeout_s,
        )
        self.closed = True
        return self._decode_results(document)

    @staticmethod
    def _decode_results(document) -> List[Tuple[int, Dict[int, np.ndarray]]]:
        return wire.emitted_from_wire(document.get("results", []))

    def __enter__(self) -> "LiveSessionClient":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self.closed:
            try:
                self.close(drain=False)
            except (ServerError, OSError):  # pragma: no cover - best-effort cleanup
                pass
