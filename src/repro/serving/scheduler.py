"""Cross-client micro-batching in front of :class:`ForecastService`.

The fleet engine's throughput comes from batching: one recurrent step
advances every Monte-Carlo trajectory of every request in a group.  A
process boundary would forfeit that — each HTTP connection would submit a
one-request batch.  The :class:`MicroBatchScheduler` restores it: requests
arriving from *concurrent* connections are collected for a short hold
(or until a batch fills) and submitted to the service as one mixed-model
batch, so simultaneous clients share per-model engine passes.

The hold adapts (the adaptive batching of Clipper, Crankshaw et al.,
NSDI 2017): it starts at ``window``, halves after every flush whose
batch came from a single call, and snaps to 0 once below ``window / 64``
— a lone client stops paying for a wait nobody joins.  A flush that
coalesced two or more calls puts the hold back to ``window``, and so
does a call enqueued while the engine runs: a lone closed-loop client
never does that (it is waiting for its own result), so it is the sign of
a second caller.  Without it, two alternating clients at hold 0 would
each be flushed alone while the other's batch runs, forever.  At hold 0
the worker flushes as soon as it wakes.

Correctness rests on the engine's batch invariance: every request carries
its own RNG stream (the wire protocol requires it) and all recurrent
kernels are batch-size invariant, so a request's samples are bitwise
identical whether it is submitted alone, inside its own client's batch, or
coalesced with strangers' requests — gated by
``tests/serving/test_scheduler.py`` and the serving benchmark.

Failure isolation: when a coalesced batch fails as a whole (one client
naming an unknown model must not poison its batch-mates), the scheduler
retries each collected request individually and reports per-request
outcomes (:meth:`MicroBatchScheduler.submit_settled`).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from .requests import NamedForecastRequest

__all__ = ["MicroBatchScheduler"]


@dataclass
class _Pending:
    """One enqueued request waiting for its batch to be flushed."""

    request: NamedForecastRequest
    call_id: int
    done: threading.Event = field(default_factory=threading.Event)
    result: Optional[np.ndarray] = None
    error: Optional[BaseException] = None

    def settle(self, result=None, error=None) -> None:
        self.result = result
        self.error = error
        self.done.set()


class MicroBatchScheduler:
    """Coalesces concurrent forecast submissions into shared service batches.

    Parameters
    ----------
    submit_fn:
        The downstream batch submitter — typically the gateway's
        lock-wrapped ``ForecastService.submit``.  Called from the
        scheduler's worker thread only, so the service itself never sees
        concurrent submits.
    window:
        Ceiling, in seconds, of the adaptive hold: how long a batch stays
        open after its first request arrives, waiting for other clients
        to join (module docstring).  ``0.0`` still coalesces whatever has
        accumulated by the time the worker wakes.
    max_batch:
        Flush immediately once this many requests are pending.
    """

    #: :attr:`stats` keys that are gauges (aggregate by max); the rest count
    GAUGES = ("max_batch_requests", "hold_us")

    def __init__(
        self,
        submit_fn: Callable[[Sequence[NamedForecastRequest]], List[np.ndarray]],
        window: float = 0.005,
        max_batch: int = 64,
    ) -> None:
        if not (math.isfinite(window) and window >= 0):
            raise ValueError(f"window must be a finite number >= 0 seconds, got {window!r}")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.submit_fn = submit_fn
        self.window = float(window)
        self.max_batch = int(max_batch)
        self._hold = self.window
        self._cond = threading.Condition()
        self._pending: List[_Pending] = []
        self._opened_at: Optional[float] = None
        self._running = False  # a taken batch is in submit_fn
        self._closed = False
        self._call_counter = 0
        self._stats: Dict[str, int] = {
            "requests": 0,
            "batches": 0,
            "coalesced_batches": 0,
            "max_batch_requests": 0,
            "flush_full": 0,
            "flush_window": 0,
            "flush_immediate": 0,
            "flush_close": 0,
            "isolated_retries": 0,
        }
        self._worker = threading.Thread(
            target=self._run, name="micro-batch-scheduler", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def submit(self, requests: Sequence[NamedForecastRequest]) -> List[np.ndarray]:
        """Enqueue, wait for the batch, return samples in submission order.

        Raises the first failed request's error; use :meth:`submit_settled`
        for per-request outcomes.
        """
        settled = self.submit_settled(requests)
        for outcome in settled:
            if isinstance(outcome, BaseException):
                raise outcome
        return settled  # type: ignore[return-value]

    def submit_settled(
        self, requests: Sequence[NamedForecastRequest]
    ) -> List[Union[np.ndarray, BaseException]]:
        """Like :meth:`submit`, but failures come back as values per request."""
        return self.collect(self.enqueue(requests))

    def enqueue(self, requests: Sequence[NamedForecastRequest]) -> List[_Pending]:
        """Enqueue without waiting; pair with :meth:`collect`.

        The split exists for the gateway's per-model routing: one incoming
        batch is fanned out to several schedulers (one per model) and only
        then collected, so model A's flush never waits on model B's.
        """
        requests = list(requests)
        if not requests:
            return []
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            self._call_counter += 1
            entries = [_Pending(request, self._call_counter) for request in requests]
            if self._running:
                self._hold = self.window  # queued behind an engine pass
            if not self._pending:
                self._opened_at = time.monotonic()
            self._pending.extend(entries)
            self._stats["requests"] += len(entries)
            self._cond.notify_all()
        return entries

    @staticmethod
    def collect(entries: Sequence[_Pending]) -> List[Union[np.ndarray, BaseException]]:
        """Wait for enqueued entries (possibly from *different* schedulers)."""
        for entry in entries:
            entry.done.wait()
        return [
            entry.error if entry.error is not None else entry.result for entry in entries
        ]

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _take_batch(self) -> Optional[List[_Pending]]:
        """Block until a batch is due (hold elapsed / full / closing)."""
        with self._cond:
            while True:
                if self._pending:
                    if len(self._pending) >= self.max_batch:
                        reason = "flush_full"
                    elif self._closed:
                        reason = "flush_close"
                    elif self._hold == 0:
                        reason = "flush_immediate"
                    else:
                        remaining = self._hold - (time.monotonic() - self._opened_at)
                        if remaining > 0:
                            self._cond.wait(timeout=remaining)
                            continue
                        reason = "flush_window"
                    break
                if self._closed:
                    return None
                self._cond.wait()
            batch = self._pending[: self.max_batch]
            del self._pending[: self.max_batch]
            self._opened_at = time.monotonic() if self._pending else None
            coalesced = len({entry.call_id for entry in batch}) > 1
            if coalesced:
                self._hold = self.window
            else:
                self._hold /= 2
                if self._hold < self.window / 64:
                    self._hold = 0.0
            self._stats[reason] += 1
            self._stats["batches"] += 1
            self._stats["coalesced_batches"] += coalesced
            self._stats["max_batch_requests"] = max(
                self._stats["max_batch_requests"], len(batch)
            )
            self._running = True
            return batch

    def _run(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            # snapshot every request's RNG state: a failing batch may have
            # consumed some streams before raising (the per-model engine
            # passes run sequentially), and a retry must replay the exact
            # draws a fresh submission would make
            rng_states = [
                None
                if entry.request.request.rng is None
                else entry.request.request.rng.bit_generator.state
                for entry in batch
            ]
            try:
                outcomes = self.submit_fn([entry.request for entry in batch])
            except Exception:
                # the coalesced batch failed as a whole — isolate: one bad
                # request (unknown model, a shape mismatch) must not poison
                # its batch-mates; restoring the snapshots keeps the retried
                # results bitwise equal to direct submission
                with self._cond:
                    self._stats["isolated_retries"] += len(batch)
                for entry, state in zip(batch, rng_states):
                    if state is not None:
                        entry.request.request.rng.bit_generator.state = state
                outcomes = []
                for entry in batch:
                    try:
                        outcomes.append(self.submit_fn([entry.request])[0])
                    except Exception as exc:
                        outcomes.append(exc)
            # before settling: a caller's next call, made on its own
            # result, must not look like one queued behind this pass
            with self._cond:
                self._running = False
            for entry, outcome in zip(batch, outcomes):
                if isinstance(outcome, Exception):
                    entry.settle(error=outcome)
                else:
                    entry.settle(result=outcome)

    # ------------------------------------------------------------------
    @property
    def stats(self) -> Dict[str, int]:
        with self._cond:
            return dict(self._stats, hold_us=round(self._hold * 1e6))

    def close(self, timeout: float = 5.0) -> None:
        """Flush what is pending, stop the worker, reject further submits."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._worker.join(timeout=timeout)

    def __enter__(self) -> "MicroBatchScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
