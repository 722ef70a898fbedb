"""Multi-model serving front-end over the artifact registry.

:class:`ForecastService` is the model manager of the serving layer, in the
style of OpenNMT-py's translation server: models live on disk as named
artifacts (:class:`~repro.artifacts.ArtifactStore`), ``load(name)`` brings
one into memory and hands back a :class:`ModelHandle`, and each loaded
model owns its :class:`~repro.serving.engine.FleetForecaster` so that
concurrent workloads over different models never share warm-up caches.

Memory is bounded by a capacity knob: the service keeps at most
``capacity`` models resident and unloads the least-recently-used one when
a load would exceed it.  Because fitted models are durable artifacts, an
evicted model costs one disk read to bring back — not a refit.

LRU accounting covers *serving*, not just loading: :meth:`submit` marks
every routed model most-recently-used again when its engine pass
completes, :meth:`touch` lets long-lived consumers (the HTTP gateway's
lap-streaming sessions) refresh a model they use without re-loading it,
and :meth:`pin`/:meth:`unpin` exclude a model from eviction entirely while
stateful work (a live session carrying warm-up states) depends on that
exact resident instance — evicting it would silently reset the carried
states on reload.

Batches of :class:`~repro.serving.requests.NamedForecastRequest` are
routed per model: requests naming the same model are grouped and submitted
to its fleet engine together (one batched engine pass per distinct model),
and the results come back in submission order.  Routing through the
engines preserves the fleet guarantees — given per-request RNG streams,
the routed results are byte-identical to submitting each request directly
to its model's engine.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..artifacts import ArtifactAliasError, ArtifactStore
from .engine import FleetForecaster
from .requests import NamedForecastRequest

__all__ = ["ForecastService", "ModelHandle"]


@dataclass
class ModelHandle:
    """A resident served model: the forecaster plus its manifest record."""

    name: str
    forecaster: object
    entry: dict = field(default_factory=dict)

    @property
    def family(self) -> str:
        return str(self.entry.get("family", type(self.forecaster).__name__))

    def engine(
        self, mode: Optional[str] = None, precision: Optional[str] = None
    ) -> FleetForecaster:
        """The model's fleet engine (deep forecaster families only).

        ``precision`` selects the compute tier the engine runs on (see
        :mod:`repro.nn.precision`); each ``(mode, precision)`` pair is a
        separate cached engine on the forecaster, so low-precision traffic
        never perturbs the byte-identical float64 reference replica.
        """
        fleet_engine = getattr(self.forecaster, "fleet_engine", None)
        if fleet_engine is None:
            raise TypeError(
                f"model {self.name!r} ({self.family}) has no fleet engine; "
                "use forecast()/forecast_fleet() for non-deep families"
            )
        kwargs = {}
        if mode is not None:
            kwargs["mode"] = mode
        if precision is not None:
            kwargs["precision"] = precision
        return fleet_engine(**kwargs)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ModelHandle(name={self.name!r}, family={self.family!r})"


class ForecastService:
    """LRU-bounded manager serving forecasts from named model artifacts."""

    def __init__(
        self,
        store: Union[ArtifactStore, str],
        capacity: int = 4,
        mode: str = "exact",
        verify: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.store = store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        self.capacity = int(capacity)
        self.mode = mode
        self.verify = bool(verify)
        self._resident: "OrderedDict[str, ModelHandle]" = OrderedDict()
        self._pins: Dict[str, int] = {}
        # guards the registry (residency, pins, LRU order, stats) — not the
        # engine passes themselves, which run outside it so that different
        # models can forecast concurrently.  Callers running *the same*
        # model concurrently must serialize externally (the gateway's
        # executor holds a per-model lock / routes to a per-model worker).
        self._registry_lock = threading.RLock()
        self._stats: Dict[str, int] = {
            "loads": 0,
            "hits": 0,
            "evictions": 0,
            "touches": 0,
        }

    # ------------------------------------------------------------------
    # model lifecycle
    # ------------------------------------------------------------------
    def load(self, name: str) -> ModelHandle:
        """Return a handle to the named model, reading it from disk if needed.

        A resident model is promoted to most-recently-used; loading beyond
        ``capacity`` unloads the least-recently-used model first.

        Aliases resolve to their current target *here*, at load time, and
        the handle is cached under the target's own name — so traffic
        addressed to ``champion`` and to the target artifact directly share
        one resident instance, and re-pointing the alias can never leave a
        stale handle cached under the alias name.
        """
        with self._registry_lock:
            name = self.store.resolve(name)
            handle = self._resident.get(name)
            if handle is not None:
                self._resident.move_to_end(name)
                self._stats["hits"] += 1
                return handle
            if len(self._pins) >= self.capacity:
                raise ValueError(
                    f"cannot load {name!r}: all {self.capacity} capacity slots are "
                    f"held by pinned models {sorted(self._pins)}; raise the capacity "
                    "or close the sessions pinning them"
                )
            forecaster = self.store.load_model(name, verify=self.verify)
            handle = ModelHandle(
                name=name,
                forecaster=forecaster,
                entry=self.store.entry(name),
            )
            self._resident[name] = handle
            self._stats["loads"] += 1
            while len(self._resident) > self.capacity:
                victim = next((n for n in self._resident if n not in self._pins), None)
                if victim is None:  # unreachable given the pre-load pin guard
                    break
                del self._resident[victim]
                self._stats["evictions"] += 1
            return handle

    def touch(self, name: str) -> bool:
        """Mark a resident model most-recently-used without reloading it.

        The refresh path for consumers that hold a model across many uses
        (a lap-streaming session, a long rolling evaluation) — without it,
        a model can sit at the LRU end while actively serving and be
        evicted by unrelated loads.  Returns whether the model was
        resident.
        """
        with self._registry_lock:
            name = self.store.resolve(name)
            if name not in self._resident:
                return False
            self._resident.move_to_end(name)
            self._stats["touches"] += 1
            return True

    def pin(self, name: str) -> ModelHandle:
        """Load the named model and exclude it from LRU eviction.

        Pins nest (one per open session); a model stays pinned until every
        :meth:`unpin` matched its :meth:`pin`.  Pinning matters for carry-
        mode consumers: their warm-up states live on the resident engine
        instance, so a silent evict-and-reload would reset them.
        """
        with self._registry_lock:
            name = self.store.resolve(name)
            handle = self.load(name)
            self._pins[name] = self._pins.get(name, 0) + 1
            return handle

    def unpin(self, name: str) -> bool:
        """Release one pin on the named model; returns whether it was pinned."""
        with self._registry_lock:
            name = self.store.resolve(name)
            count = self._pins.get(name)
            if count is None:
                return False
            if count <= 1:
                del self._pins[name]
            else:
                self._pins[name] = count - 1
            return True

    def pinned(self) -> List[str]:
        """Names currently excluded from eviction, sorted."""
        with self._registry_lock:
            return sorted(self._pins)

    def unload(self, name: str) -> bool:
        """Drop the named model from memory; returns whether it was resident.

        Pinned models refuse to unload — a live session still depends on
        the resident instance and its carried states.  So do models an
        alias points at (and alias names themselves): silently dropping
        the target of ``champion`` would turn the next aliased request
        into a surprise cold load — or, worse, a stale handle — so the
        caller must re-point or delete the alias first
        (:class:`~repro.artifacts.ArtifactAliasError`).
        """
        with self._registry_lock:
            if self.store.is_alias(name):
                raise ArtifactAliasError(
                    f"{name!r} is an alias; unload its target or delete the "
                    "alias instead"
                )
            referencing = self.store.aliases_for(name)
            if referencing:
                raise ArtifactAliasError(
                    f"model {name!r} is the target of alias(es) "
                    f"{', '.join(repr(a) for a in referencing)} and cannot be "
                    "unloaded while they point at it"
                )
            if name in self._pins:
                raise ValueError(
                    f"model {name!r} is pinned by {self._pins[name]} active consumer(s) "
                    "and cannot be unloaded"
                )
            return self._resident.pop(name, None) is not None

    def loaded(self) -> List[str]:
        """Resident model names, least-recently-used first."""
        with self._registry_lock:
            return list(self._resident)

    def available(self) -> List[str]:
        """Every artifact name the underlying store can serve."""
        return self.store.names()

    @property
    def stats(self) -> Dict[str, int]:
        with self._registry_lock:
            return dict(self._stats)

    # ------------------------------------------------------------------
    # forecasting
    # ------------------------------------------------------------------
    def forecast(self, name: str, series, origin: int, horizon: int, n_samples: int = 100):
        """Single forecast through the named model (any family)."""
        return self.load(name).forecaster.forecast(
            series, int(origin), int(horizon), n_samples=n_samples
        )

    def forecast_fleet(self, name: str, tasks: Sequence[Tuple], n_samples: int = 100):
        """Batched ``(series, origin, horizon)`` forecasts through one model."""
        return self.load(name).forecaster.forecast_fleet(tasks, n_samples=n_samples)

    def submit(self, requests: Sequence[NamedForecastRequest]) -> List[np.ndarray]:
        """Route a mixed-model batch of named requests to the fleet engines.

        Requests are grouped by ``(model, precision)`` (one engine submit
        per distinct replica); the returned sample arrays line up with the
        submission order.  All named models are loaded first — so a batch
        naming more distinct models than ``capacity`` raises rather than
        thrashing the LRU mid-flight.

        Alias targets are resolved here, at submit time — a batch mixing
        ``champion`` and its target artifact by name routes through a
        single engine pass, and every request in one batch sees the same
        resolution even if a promotion lands mid-flight.
        """
        requests = list(requests)
        if not requests:
            return []
        resolved: Dict[str, str] = {}
        order: "OrderedDict[Tuple[str, str], List[int]]" = OrderedDict()
        for i, named in enumerate(requests):
            if not isinstance(named, NamedForecastRequest):
                raise TypeError(
                    f"submit expects NamedForecastRequest, got {type(named).__name__}"
                )
            if named.model not in resolved:
                resolved[named.model] = self.store.resolve(named.model)
            order.setdefault((resolved[named.model], named.precision), []).append(i)
        names = OrderedDict((model, None) for model, _ in order)
        with self._registry_lock:
            # slots held by pinned models outside this batch are not available —
            # loading past them would evict a batch-mate mid-flight instead
            reserved = sum(1 for name in self._pins if name not in names)
            if len(names) > self.capacity - reserved:
                raise ValueError(
                    f"batch names {len(names)} distinct models, but only "
                    f"{self.capacity - reserved} of {self.capacity} slots are free "
                    f"({reserved} pinned); raise the capacity or split the batch"
                )
            handles = {name: self.load(name) for name in names}
        outputs: List[Optional[np.ndarray]] = [None] * len(requests)
        for (name, precision), indices in order.items():
            engine = handles[name].engine(self.mode, precision)
            results = engine.submit([requests[i].request for i in indices])
            for i, samples in zip(indices, results):
                outputs[i] = samples
            # re-promote on completion, not just on the upfront load: an
            # engine pass can be long, and loads interleaved by other
            # consumers must not leave an actively-serving model at the
            # LRU end of the order
            self.touch(name)
        return outputs  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ForecastService(root={self.store.root!r}, "
            f"resident={self.loaded()}, capacity={self.capacity})"
        )
