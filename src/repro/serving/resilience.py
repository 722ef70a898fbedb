"""Resilience primitives of the serving tier.

The HTTP gateway (:mod:`repro.serving.server`) and the stdlib client
(:mod:`repro.serving.client`) share a small vocabulary of fault-tolerance
building blocks, all deterministic where randomness is involved:

* :class:`RetryPolicy` — exponential backoff with *seeded* jitter, so a
  retried run sleeps the exact same schedule every time and chaos tests
  can assert byte-identity between a faulted and a fault-free run;
* :class:`Deadline` — a relative time budget carried as ``deadline_ms``
  on the wire (relative, never absolute: client and server clocks are
  unrelated) and checked server-side before expensive engine work;
* :class:`CircuitBreaker` — per-model failure accounting: after
  ``threshold`` consecutive engine failures the model's circuit opens and
  requests fail fast with ``circuit_open`` instead of queueing behind a
  broken engine; after ``cooldown_s`` one half-open probe is admitted and
  a success closes the circuit again;
* :class:`AdmissionController` — a bounded in-flight counter in front of
  the gateway lock: past the bound, work is shed immediately with a
  structured ``429 overloaded`` envelope carrying ``retry_after_ms``
  rather than queueing without limit;
* :class:`IdempotencyCache` — replay dedup for retried POSTs: a request
  carrying an ``idempotency_key`` the gateway has already answered gets
  the stored response document back, byte for byte, without re-running
  the engine (safe because per-request RNG transport already makes the
  first execution deterministic).

Everything takes an injectable ``clock`` so tests drive state machines
without sleeping.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .wire import WireError

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceededError",
    "IdempotencyCache",
    "OverloadedError",
    "RetryPolicy",
    "WorkerRestartingError",
]


# ----------------------------------------------------------------------
# the structured failures the resilience layer introduces
# ----------------------------------------------------------------------
class OverloadedError(WireError):
    """Admission control shed this request; retry after ``retry_after_ms``."""

    def __init__(self, message: str, retry_after_ms: int = 50) -> None:
        super().__init__(
            "overloaded",
            message,
            status=429,
            detail={"retry_after_ms": int(retry_after_ms)},
        )
        self.retry_after_ms = int(retry_after_ms)


class DeadlineExceededError(WireError):
    """The request's time budget ran out before (or during) its engine work."""

    def __init__(self, message: str) -> None:
        super().__init__("deadline_exceeded", message, status=504)


class CircuitOpenError(WireError):
    """The named model's circuit is open; requests fail fast until it cools."""

    def __init__(self, message: str, retry_after_ms: int = 1000) -> None:
        super().__init__(
            "circuit_open",
            message,
            status=503,
            detail={"retry_after_ms": int(retry_after_ms)},
        )
        self.retry_after_ms = int(retry_after_ms)


class WorkerRestartingError(WireError):
    """The model's worker replica is down and being restarted by the supervisor.

    Raised instead of queueing behind a dead process: the request was never
    executed, so a retry after ``retry_after_ms`` (sized from the
    supervisor's backoff) is always safe.  Subclassing :class:`WireError`
    keeps the restart window out of the circuit breaker's failure counts —
    the supervisor already knows the replica is down; tripping the breaker
    on top would only delay recovery visibility.
    """

    def __init__(self, message: str, retry_after_ms: int = 250) -> None:
        super().__init__(
            "worker_restarting",
            message,
            status=503,
            detail={"retry_after_ms": int(retry_after_ms)},
        )
        self.retry_after_ms = int(retry_after_ms)


# ----------------------------------------------------------------------
# retry policy (seeded backoff-with-jitter)
# ----------------------------------------------------------------------
#: error codes a client may retry without changing the outcome: the server
#: either never executed the request, or idempotency keys dedupe the replay
RETRYABLE_CODES = frozenset(
    {
        "overloaded",
        "circuit_open",
        "injected_fault",
        "internal_error",
        "worker_restarting",
    }
)


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential-backoff-with-jitter retry schedule.

    ``delays()`` yields the sleep before each retry (so ``max_attempts``
    attempts → ``max_attempts - 1`` delays).  The jitter is drawn from a
    generator seeded with ``seed``, which makes a retried run — and
    therefore a chaos test asserting byte-identity against the fault-free
    run — fully reproducible.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0 seconds")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delays(self) -> Iterator[float]:
        """The deterministic sleep schedule, one entry per retry."""
        rng = np.random.default_rng(self.seed)
        for attempt in range(self.max_attempts - 1):
            raw = min(self.base_delay_s * self.multiplier**attempt, self.max_delay_s)
            # "equal jitter": keep (1 - jitter) of the backoff, randomise the rest
            yield raw * (1.0 - self.jitter) + raw * self.jitter * float(rng.random())

    @staticmethod
    def retryable_status(status: int, code: Optional[str] = None) -> bool:
        """Whether a structured server error is safe and useful to retry."""
        if code is not None and code in RETRYABLE_CODES:
            return True
        return int(status) >= 500 or int(status) == 429


# ----------------------------------------------------------------------
# deadlines (relative budgets, explicit clocks)
# ----------------------------------------------------------------------
class Deadline:
    """A monotonic time budget: ``Deadline.after(0.2)`` expires in 200 ms."""

    __slots__ = ("expires_at", "clock")

    def __init__(self, expires_at: float, clock: Callable[[], float] = time.monotonic) -> None:
        self.expires_at = float(expires_at)
        self.clock = clock

    @classmethod
    def after(
        cls, budget_s: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        if budget_s <= 0:
            raise ValueError("deadline budget must be > 0 seconds")
        return cls(clock() + float(budget_s), clock=clock)

    @classmethod
    def from_ms(
        cls, budget_ms, clock: Callable[[], float] = time.monotonic
    ) -> Optional["Deadline"]:
        """Build from a wire ``deadline_ms`` field (``None`` → no deadline)."""
        if budget_ms is None:
            return None
        if (
            not isinstance(budget_ms, (int, float))
            or isinstance(budget_ms, bool)
            or budget_ms <= 0
        ):
            raise WireError(
                "malformed_request", "deadline_ms must be a positive number of milliseconds"
            )
        return cls.after(float(budget_ms) / 1e3, clock=clock)

    def remaining(self) -> float:
        return self.expires_at - self.clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` once the budget is spent."""
        remaining = self.remaining()
        if remaining <= 0.0:
            raise DeadlineExceededError(
                f"{what} exceeded its deadline by {-remaining * 1e3:.1f} ms"
            )


# ----------------------------------------------------------------------
# circuit breaker (per served model)
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Closed → open after ``threshold`` consecutive failures → half-open probe.

    The gateway keeps one per served model.  While open, :meth:`allow`
    returns ``False`` (callers raise :class:`CircuitOpenError`) until
    ``cooldown_s`` has passed; then exactly one caller is admitted as the
    half-open probe — its success closes the circuit, its failure re-opens
    the cooldown window.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        threshold: int = 5,
        cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        self.threshold = int(threshold)
        self.cooldown_s = float(cooldown_s)
        self.clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._trips = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._peek_state()

    def _peek_state(self) -> str:
        if self._state == self.OPEN and self._opened_at is not None:
            if self.clock() - self._opened_at >= self.cooldown_s:
                return self.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """Whether a request may proceed right now (claims the half-open probe)."""
        with self._lock:
            state = self._peek_state()
            if state == self.CLOSED:
                return True
            if state == self.HALF_OPEN:
                # claim the probe: concurrent callers stay shed until it settles
                self._state = self.HALF_OPEN
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._consecutive_failures = 0
            self._opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == self.HALF_OPEN or self._consecutive_failures >= self.threshold:
                if self._state != self.OPEN:
                    self._trips += 1
                self._state = self.OPEN
                self._opened_at = self.clock()

    def retry_after_ms(self) -> int:
        with self._lock:
            if self._opened_at is None:
                return 0
            remaining = self.cooldown_s - (self.clock() - self._opened_at)
            return max(0, int(remaining * 1e3))

    def describe(self) -> Dict[str, object]:
        """JSON-safe state for ``/v1/health``."""
        with self._lock:
            return {
                "state": self._peek_state(),
                "consecutive_failures": self._consecutive_failures,
                "threshold": self.threshold,
                "trips": self._trips,
                "retry_after_ms": (
                    0
                    if self._opened_at is None
                    else max(0, int((self.cooldown_s - (self.clock() - self._opened_at)) * 1e3))
                ),
            }


# ----------------------------------------------------------------------
# admission control (bounded in-flight work)
# ----------------------------------------------------------------------
class AdmissionController:
    """Sheds work past a bound instead of queueing it without limit.

    The gateway serializes engine work behind one lock, so every admitted
    request past the first is effectively queued.  ``limit`` bounds that
    queue: request ``limit + 1`` is refused *immediately* with
    :class:`OverloadedError` and a ``retry_after_ms`` hint sized from the
    recent per-request service time — overload becomes a fast, structured
    signal instead of unbounded latency.
    """

    def __init__(
        self,
        limit: int = 32,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if limit < 1:
            raise ValueError("admission limit must be >= 1")
        self.limit = int(limit)
        self.clock = clock
        self._lock = threading.Lock()
        self._in_flight = 0
        self._stats = {"admitted": 0, "rejected": 0, "completed": 0}
        # exponential moving average of service time, seeds retry_after_ms
        self._avg_service_s = 0.05

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    @property
    def queue_depth(self) -> int:
        """Admitted requests waiting behind the one holding the gateway lock."""
        with self._lock:
            return max(0, self._in_flight - 1)

    @property
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._stats)

    def retry_after_ms(self) -> int:
        with self._lock:
            # a freed slot needs roughly one service time per queued request
            return max(1, int(self._avg_service_s * (self._in_flight + 1) * 1e3))

    def admit(self, what: str = "request") -> "_Admission":
        """Context manager: admit or raise :class:`OverloadedError`."""
        with self._lock:
            if self._in_flight >= self.limit:
                self._stats["rejected"] += 1
                retry_after = max(1, int(self._avg_service_s * (self._in_flight + 1) * 1e3))
                raise OverloadedError(
                    f"{what} shed: {self._in_flight} requests already in flight "
                    f"(admission limit {self.limit})",
                    retry_after_ms=retry_after,
                )
            self._in_flight += 1
            self._stats["admitted"] += 1
        return _Admission(self)

    def _release(self, elapsed_s: float) -> None:
        with self._lock:
            self._in_flight -= 1
            self._stats["completed"] += 1
            self._avg_service_s = 0.8 * self._avg_service_s + 0.2 * max(elapsed_s, 1e-4)

    def describe(self) -> Dict[str, object]:
        with self._lock:
            return {
                "limit": self.limit,
                "in_flight": self._in_flight,
                "queue_depth": max(0, self._in_flight - 1),
                **self._stats,
            }


class _Admission:
    """The held admission slot; releases on ``__exit__``."""

    __slots__ = ("_controller", "_entered_at", "_released")

    def __init__(self, controller: AdmissionController) -> None:
        self._controller = controller
        self._entered_at = controller.clock()
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._release(self._controller.clock() - self._entered_at)

    def __enter__(self) -> "_Admission":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


# ----------------------------------------------------------------------
# idempotency replay cache
# ----------------------------------------------------------------------
class IdempotencyCache:
    """Bounded LRU of answered ``idempotency_key`` → response documents.

    A retried POST whose first execution already completed (the response
    was lost on the wire, not the work) replays the stored document instead
    of re-running the engine.  The stored response is byte-identical to
    the first one, so a client cannot distinguish a replay from the
    original — which is exactly the retry contract the chaos harness
    gates.

    One replay authority per request kind: session laps never enter the
    cache (see ``ForecastGateway._execute``).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("idempotency capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[int, dict]]" = OrderedDict()
        self._stats = {"hits": 0, "misses": 0, "stored": 0}

    def get(self, key: Optional[str]) -> Optional[Tuple[int, dict]]:
        if key is None:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._stats["misses"] += 1
                return None
            self._entries.move_to_end(key)
            self._stats["hits"] += 1
            return entry

    def put(self, key: Optional[str], status: int, document: dict) -> None:
        if key is None:
            return
        with self._lock:
            self._entries[key] = (int(status), document)
            self._entries.move_to_end(key)
            self._stats["stored"] += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    @property
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._stats)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def validate_idempotency_key(key) -> Optional[str]:
    """Check a wire ``idempotency_key`` field (``None`` passes through)."""
    if key is None:
        return None
    if not isinstance(key, str) or not key or len(key) > 256:
        raise WireError(
            "malformed_request",
            "idempotency_key must be a non-empty string of at most 256 characters",
        )
    return key


def sleep_schedule(policy: Optional[RetryPolicy]) -> List[float]:
    """Materialised delays for ``policy`` (empty when retries are disabled)."""
    return [] if policy is None else list(policy.delays())
