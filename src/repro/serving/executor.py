"""In-process execution of the gateway's engine work.

The gateway (:mod:`repro.serving.server`) runs every model operation
through one *executor*: :class:`LocalExecutor` on a shared
:class:`~repro.serving.service.ForecastService`, one lock per model, or
:class:`~repro.serving.supervisor.WorkerSupervisor` with one worker
process per model — and each worker runs a :class:`LocalExecutor` over a
capacity-1 service.  Session construction, lap-error mapping and sweeps
therefore live here once, and the two gateway modes cannot drift apart on
what an operation does or which wire error it fails with.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Dict, List, Optional

from ..artifacts import ArtifactNotFoundError
from . import wire
from .resilience import Deadline
from .sessions import RaceSession, build_live_session
from .service import ForecastService, ModelHandle
from .wire import WireError

__all__ = ["LocalExecutor", "LocalSession", "execute_sweep", "is_engine_failure"]


def is_engine_failure(exc: BaseException) -> bool:
    """Whether a failure counts against the model's circuit breaker.

    Request-shaped failures (unknown model, malformed arrays) and
    structured wire errors (``worker_restarting``, an overloaded worker
    queue) say nothing about the engine's health; anything else does.
    """
    return not isinstance(exc, (WireError, ArtifactNotFoundError, TypeError, ValueError))


def execute_sweep(forecaster, parsed: dict):
    """Run one parsed strategy sweep (``wire.sweep_request_from_wire``),
    mapping optimizer failures onto their wire errors."""
    # imported lazily: the optimizer pulls in the full deep-model stack
    from ..strategy.optimizer import PitStrategyOptimizer

    try:
        optimizer = PitStrategyOptimizer(
            forecaster,
            n_samples=parsed["n_samples"],
            field_size=parsed["field_size"],
            precision=parsed.get("precision", "float64"),
        )
    except (TypeError, ValueError) as exc:
        raise WireError(
            "unsupported_family",
            f"model {parsed['model']!r} cannot drive the strategy optimizer: {exc}",
        ) from exc
    try:
        return optimizer.sweep(
            parsed["series"],
            parsed["origins"],
            parsed["horizon"],
            earliest=parsed["earliest"],
            latest=parsed["latest"],
            step=parsed["step"],
            mode=parsed["mode"],
            rng=parsed["rng"],
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise WireError("invalid_request", f"sweep failed: {exc}") from exc


class LocalExecutor:
    """Engine work on a shared in-process service, one lock per model.

    ``timeout_s`` and ``internal`` mirror ``WorkerSupervisor``: in-process
    there is no pipe to abandon and no restart window to see through.
    """

    #: the health document's ``worker_pool`` block: no pool in-process
    worker_pool = None

    def __init__(self, service: ForecastService) -> None:
        self.service = service
        self._locks_lock = threading.Lock()
        self._locks: Dict[str, threading.RLock] = defaultdict(threading.RLock)

    def lock(self, model: str) -> threading.RLock:
        with self._locks_lock:
            return self._locks[model]

    def ensure(self, model: str) -> ModelHandle:
        return self.service.load(model)

    def stop(self, model: str) -> bool:
        return self.service.unload(model)

    def pin(self, model: str) -> ModelHandle:
        return self.service.pin(model)

    def unpin(self, model: str) -> bool:
        return self.service.unpin(model)

    def touch(self, model: str) -> None:
        self.service.touch(model)

    def models(self) -> List[str]:
        return self.service.loaded()

    def pinned(self) -> List[str]:
        return self.service.pinned()

    def describe(self) -> List[dict]:
        return []

    @property
    def stats(self) -> Dict[str, int]:
        return self.service.stats

    def close(self) -> None:
        pass

    def kill_worker(self, model: str = "") -> Optional[int]:
        return None

    def hang_worker(self, model: str = "") -> Optional[int]:
        return None

    def submit(self, model: str, requests, timeout_s: Optional[float] = None):
        with self.lock(model):
            return self.service.submit(requests)

    def sweep(self, model: str, document: dict, timeout_s: Optional[float] = None) -> dict:
        parsed = wire.sweep_request_from_wire(document)
        deadline = None if timeout_s is None else Deadline.after(timeout_s)
        with self.lock(model):
            # shed a sweep whose budget ran out while it queued for the
            # model's lock; a sweep on model A never delays model B
            if deadline is not None:
                deadline.check(f"strategy sweep for model {model!r}")
            points = execute_sweep(self.service.load(model).forecaster, parsed)
        return wire.sweep_points_to_wire(points)

    def open_session(
        self, model: str, session_id: str, document: dict, internal: bool = False
    ) -> "LocalSession":
        """Build the live session a ``session-open`` document describes.

        The RNG transport is required: a session's forecasts must be
        reproducible whatever the transport, the same contract as
        ``/v1/forecast`` (``build_live_session`` enforces it).
        """
        try:
            session = build_live_session(document, self.service.load(model).forecaster)
        except WireError:
            raise
        except (TypeError, ValueError) as exc:
            raise WireError("invalid_request", f"cannot open session: {exc}") from exc
        return LocalSession(self, model, session)


class LocalSession:
    """A :class:`RaceSession` whose engine work runs under its model's lock;
    reads of its counters (``latest_lap``, ``lap_log``, ...) pass through."""

    def __init__(self, executor: LocalExecutor, model: str, session: RaceSession) -> None:
        self.executor = executor
        self.model = str(model)
        self.session = session

    def __getattr__(self, name: str):
        return getattr(self.session, name)

    def apply_lap(self, lap, records, timeout_s=None, internal: bool = False):
        """``RaceSession.apply_lap``; a rejected lap raises ``invalid_request``."""
        with self.executor.lock(self.model):
            # keep the session's model MRU while actively serving
            self.executor.touch(self.model)
            try:
                return self.session.apply_lap(lap, records)
            except WireError:
                raise  # WireError subclasses ValueError: keep it structured
            except ValueError as exc:
                raise WireError("invalid_request", str(exc)) from exc

    def finish(self, drain: bool = True):
        with self.executor.lock(self.model):
            return self.session.finish(drain)

    def drop(self) -> None:
        """Nothing to release: the session lives only in this object."""
