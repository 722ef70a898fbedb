"""Server-side live-race sessions: stream laps in, get fleet forecasts out.

A :class:`RaceSession` is the stateful core behind the gateway's
``/v1/sessions`` API and behind
:meth:`repro.simulation.live.LiveRaceForecaster.stream`: a timing-feed
client posts one lap of telemetry at a time
(:meth:`RaceSession.observe_lap`) instead of re-sending whole lap
histories, and the session keeps everything incremental on the server —

* features are grown lap by lap through
  :class:`~repro.data.features.LiveFeatureBuilder`, whose output is
  byte-identical to rebuilding :func:`~repro.data.features.build_race_features`
  from scratch over the telemetry seen so far;
* forecasts run through the live forecaster's **carry-mode** fleet engine,
  so consecutive origins advance each car's recurrent warm-up state by one
  teacher-forcing step instead of replaying the history window;
* a forecast origin ``O`` is emitted as soon as its features are *final* —
  once lap ``O + 1 + delay`` has been observed — which is what makes a
  lap-streamed session bitwise equal to replaying the finished race
  through ``LiveRaceForecaster.stream``.

``delay`` defaults to the feature pipeline's forward-shift lag (the Fig. 7
shift features look ``shift_lag`` laps ahead).  Forecasters that condition
on *future* covariates taken from the series (the RankNet oracle variant)
additionally need the horizon to be final: use ``delay = shift_lag +
horizon`` for those (``LiveRaceForecaster.stream`` always does).

:class:`SessionManager` is the gateway's registry of open sessions: id
allocation, per-session locks for the threaded HTTP server, and bounded
concurrency.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.features import DEFAULT_MIN_LAPS, DEFAULT_SHIFT_LAG, LiveFeatureBuilder

__all__ = ["RaceSession", "SessionManager", "ManagedSession", "build_live_session", "session_counters"]


class RaceSession:
    """One live race streamed lap by lap through a fitted forecaster.

    Parameters
    ----------
    live:
        A :class:`~repro.simulation.live.LiveRaceForecaster` (duck-typed:
        anything with ``forecast_at(series_list, origin)``, ``min_history``
        and ``horizon``).  The session owns no model state of its own — it
        owns the *race* state: the streamed telemetry, the incremental
        feature builder, and the next origin cursor.
    delay:
        Laps to hold back before forecasting an origin, so its features are
        final (>= the feature pipeline's ``shift_lag``); origin ``O`` is
        emitted once lap ``O + 1 + delay`` has been observed.
    start, stop, stride:
        Origin window, matching ``LiveRaceForecaster.stream``:  origins run
        from ``max(start, min_history)`` to ``stop`` inclusive in steps of
        ``stride``; ``stop=None`` keeps the session open-ended.
    """

    def __init__(
        self,
        live,
        event: str = "live",
        year: int = 0,
        race_id: Optional[str] = None,
        delay: Optional[int] = None,
        start: Optional[int] = None,
        stop: Optional[int] = None,
        stride: int = 1,
        min_laps: int = DEFAULT_MIN_LAPS,
        shift_lag: int = DEFAULT_SHIFT_LAG,
    ) -> None:
        self.live = live
        self.delay = int(shift_lag if delay is None else delay)
        if self.delay < shift_lag:
            raise ValueError(
                f"delay must be >= the feature shift lag ({shift_lag}): an origin's "
                f"shift covariates are only final {shift_lag} laps later"
            )
        min_history = int(live.min_history)
        self._next_origin = min_history if start is None else max(int(start), min_history)
        self._stop = None if stop is None else int(stop)
        self._stride = max(int(stride), 1)
        self._builder = LiveFeatureBuilder(
            race_id=race_id if race_id is not None else f"{event}-{year}",
            event=event,
            year=year,
            shift_lag=shift_lag,
            min_laps=min_laps,
        )
        self.laps_observed = 0
        self.forecasts_emitted = 0
        # per-lap emission log: what each observed lap's drain produced.
        # This is the replay side of the crash-safety story — a client
        # whose lap post was applied but whose response was lost (a torn
        # connection, or a gateway SIGKILL after the journal append)
        # retries the same lap and gets the original forecasts back,
        # byte-identical, without the engine running (or the RNG
        # advancing) a second time.
        self._emitted_by_lap: Dict[int, List[Tuple[int, Dict[int, np.ndarray]]]] = {}
        # raw telemetry retained in arrival order, ``(lap, records)`` per
        # observed lap.  This is the continuous-learning tap: when the
        # session closes, the telemetry accumulator drains the exact laps
        # the race streamed (repro.learning.windows) instead of requiring
        # a separate offline telemetry export.
        self.lap_log: List[Tuple[int, list]] = []

    # ------------------------------------------------------------------
    @property
    def latest_lap(self) -> int:
        return self._builder.latest_lap

    @property
    def next_origin(self) -> int:
        return self._next_origin

    @property
    def num_cars(self) -> int:
        return self._builder.num_cars

    def observe_lap(self, lap: int, records) -> List[Tuple[int, Dict[int, np.ndarray]]]:
        """Feed one lap of telemetry; returns every newly-final forecast.

        Each returned item is ``(origin, {car_id: (n_samples, horizon)})``
        — usually zero or one per lap.  Origins whose whole-field forecast
        is empty (no eligible cars yet) are consumed silently, exactly as
        ``LiveRaceForecaster.stream`` skips them.
        """
        self._builder.observe_lap(lap, records)
        self.laps_observed += 1
        self.lap_log.append((int(lap), list(records)))
        emitted = self._drain(final=False)
        self._emitted_by_lap[int(lap)] = emitted
        return emitted

    def replay_lap(self, lap: int) -> List[Tuple[int, Dict[int, np.ndarray]]]:
        """The forecasts lap ``lap`` emitted when it was first observed.

        Raises :class:`KeyError` when the lap was never observed — the
        caller distinguishes a duplicate (idempotent replay) from a lap
        that is genuinely out of order.
        """
        return self._emitted_by_lap[int(lap)]

    def apply_lap(
        self, lap: int, records
    ) -> Tuple[List[Tuple[int, Dict[int, np.ndarray]]], bool]:
        """Observe a new lap, or replay a duplicate idempotently.

        Returns ``(emitted, replayed)``.  Keeping the new-vs-duplicate
        decision *inside* the session (rather than in the gateway) is what
        makes failover safe: after a worker restart the replacement session
        is rebuilt from the journal, so the gateway's view of ``latest_lap``
        can be stale — the session itself is the only authority on whether
        a lap is a duplicate.  Raises :class:`ValueError` for a lap that is
        neither newer than ``latest_lap`` nor a known duplicate (genuinely
        out of order).
        """
        lap = int(lap)
        if lap <= self.latest_lap:
            try:
                return self.replay_lap(lap), True
            except KeyError:
                raise ValueError(
                    f"lap {lap} is not newer than lap {self.latest_lap} "
                    f"and was never observed by this session"
                ) from None
        return self.observe_lap(lap, records), False

    def finish(self, drain: bool = True) -> List[Tuple[int, Dict[int, np.ndarray]]]:
        """Flush the origins still held back by ``delay`` at end of feed.

        Once the feed is over no further laps can revise the features, so
        every remaining origin up to ``stop`` is final and can be forecast
        immediately.  An open-ended session (``stop=None``) drains up to
        the last origin whose whole forecast horizon stays inside the
        observed feed — the same ``max_len - horizon - 1`` bound
        ``LiveRaceForecaster.stream`` uses, so a drained session never
        emits an origin a full-race replay would not.  ``drain=False``
        ends the feed without forecasting the held-back origins.
        """
        if not drain:
            return []
        if self._stop is None:
            limit = self.latest_lap - int(self.live.horizon) - 1
        else:
            limit = self._stop
        return self._drain(final=True, limit=limit)

    def _drain(self, final: bool, limit: Optional[int] = None) -> List:
        emitted: List[Tuple[int, Dict[int, np.ndarray]]] = []
        series_list = None
        while True:
            origin = self._next_origin
            if self._stop is not None and origin > self._stop:
                break
            if limit is not None and origin > limit:
                break
            if not final and self.latest_lap < origin + 1 + self.delay:
                break
            if series_list is None:
                # one materialisation per drain: the feature arrays cannot
                # change between origins while no new lap arrives
                series_list = self._builder.series()
            forecasts = self.live.forecast_at(series_list, origin)
            self._next_origin = origin + self._stride
            if forecasts:
                self.forecasts_emitted += 1
                emitted.append((origin, forecasts))
        return emitted


# ----------------------------------------------------------------------
# the gateway's session registry
# ----------------------------------------------------------------------
@dataclass
class ManagedSession:
    """A registered session plus the bookkeeping the gateway needs."""

    session_id: str
    #: the executor's handle on the session: ``LocalSession`` in-process,
    #: ``RaceSessionProxy`` in worker mode (see ``repro.serving.executor``)
    session: object
    model: str
    opened_at: float
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    #: set (under ``lock``) once the session is closed, so a lap request
    #: that raced the close and already holds the ManagedSession cannot
    #: observe laps on a session whose model pin was released
    closed: bool = False
    #: the session's write-ahead journal (``repro.serving.journal``), when
    #: the gateway runs with crash-safe sessions enabled
    journal: Optional[object] = field(default=None, repr=False, compare=False)
    #: True when this session was rebuilt from its journal after a restart
    recovered: bool = False

    def describe(self) -> dict:
        return {
            "session": self.session_id,
            "model": self.model,
            **session_counters(self.session),
            "recovered": self.recovered,
        }


def session_counters(session) -> dict:
    """A session's progress counters, as the wire and the worker pipe carry them."""
    return {
        "latest_lap": session.latest_lap,
        "next_origin": session.next_origin,
        "laps_observed": session.laps_observed,
        "forecasts_emitted": session.forecasts_emitted,
        "cars": session.num_cars,
    }


class SessionManager:
    """Thread-safe registry of the gateway's open live sessions."""

    def __init__(self, limit: int = 32) -> None:
        if limit < 1:
            raise ValueError("session limit must be >= 1")
        self.limit = int(limit)
        self._lock = threading.Lock()
        self._sessions: Dict[str, ManagedSession] = {}
        self._counter = 0

    def allocate_id(self) -> str:
        """Reserve the next ``sess-NNNNNN`` id without registering anything.

        The gateway opens the session in its executor (inside a worker
        process, in worker mode) *before* registering it here, so a
        registration failure can roll the worker back by id — the id must
        exist first.
        """
        with self._lock:
            self._counter += 1
            return f"sess-{self._counter:06d}"

    def open(
        self, session: object, model: str, session_id: Optional[str] = None
    ) -> ManagedSession:
        """Register a session; ``session_id`` pins the id (journal recovery).

        When an explicit id carries the standard ``sess-NNNNNN`` shape the
        allocation counter advances past it, so sessions opened after a
        crash recovery can never collide with the recovered ids.
        """
        with self._lock:
            if len(self._sessions) >= self.limit:
                raise RuntimeError(
                    f"session limit reached ({self.limit} open); close one first"
                )
            if session_id is None:
                self._counter += 1
                session_id = f"sess-{self._counter:06d}"
            else:
                session_id = str(session_id)
                if session_id in self._sessions:
                    raise RuntimeError(f"session id {session_id!r} is already open")
                match = re.fullmatch(r"sess-(\d+)", session_id)
                if match is not None:
                    self._counter = max(self._counter, int(match.group(1)))
            managed = ManagedSession(
                session_id=session_id,
                session=session,
                model=str(model),
                opened_at=time.time(),
            )
            self._sessions[session_id] = managed
            return managed

    def get(self, session_id: str) -> ManagedSession:
        with self._lock:
            managed = self._sessions.get(session_id)
        if managed is None:
            raise KeyError(session_id)
        return managed

    def close(self, session_id: str) -> ManagedSession:
        with self._lock:
            managed = self._sessions.pop(session_id, None)
        if managed is None:
            raise KeyError(session_id)
        return managed

    def close_all(self) -> List[ManagedSession]:
        with self._lock:
            closed = list(self._sessions.values())
            self._sessions.clear()
        return closed

    def describe(self) -> List[dict]:
        with self._lock:
            managed = list(self._sessions.values())
        return [m.describe() for m in managed]

    def snapshot(self) -> List[ManagedSession]:
        """The open :class:`ManagedSession` objects (supervision/failover)."""
        with self._lock:
            return list(self._sessions.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)


def build_live_session(document: dict, forecaster) -> RaceSession:
    """Construct a :class:`RaceSession` from a validated ``session-open`` doc.

    Called by :meth:`repro.serving.executor.LocalExecutor.open_session`,
    the one construction path of the in-process gateway, the worker
    processes and journal failover — they must build *identical* sessions
    from the same wire document or the byte-identity contract across a
    worker restart breaks.  ``document`` is assumed envelope-checked; field
    coercion errors surface as ``ValueError``/``TypeError`` for the caller
    to map onto wire errors.
    """
    from ..simulation.live import LiveRaceForecaster
    from . import wire

    live = LiveRaceForecaster(
        forecaster,
        horizon=int(document.get("horizon", 2)),
        n_samples=int(document.get("n_samples", 50)),
        min_history=int(document.get("min_history", 10)),
        rng=wire.rng_from_wire(document.get("rng"), required=True),
        precision=wire.precision_from_wire(document, kind="session-open"),
    )
    return RaceSession(
        live,
        event=str(document.get("event", "live")),
        year=int(document.get("year", 0)),
        delay=document.get("delay"),
        start=document.get("start"),
        stop=document.get("stop"),
        stride=int(document.get("stride", 1)),
    )
