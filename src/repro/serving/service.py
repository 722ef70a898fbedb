"""Multi-model serving front-end over the artifact registry.

:class:`ForecastService` is the model manager of the serving layer, in the
style of OpenNMT-py's translation server: models live on disk as named
artifacts (:class:`~repro.artifacts.ArtifactStore`), ``load(name)`` brings
one into memory and hands back a :class:`ModelHandle`, and each loaded
model owns its :class:`~repro.serving.engine.FleetForecaster` so that
concurrent workloads over different models never share warm-up caches.

Residency is a :class:`~repro.serving.cache.PinnedLRU`, the policy the
worker pool uses too: at most ``capacity`` models, the least-recently-used
unpinned one evicted (one disk read to bring back, not a refit).
:meth:`submit` re-promotes every routed model when its engine pass
completes, :meth:`touch` refreshes a model held by a long-lived consumer,
and :meth:`pin` keeps the instance whose warm-up states a live session
carries.

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
from .cache import PinnedLRU
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
        self._models = PinnedLRU(capacity)  # name -> ModelHandle
        self.store = store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        self.capacity = int(capacity)
        self.mode = mode
        self.verify = bool(verify)
        # guards the registry (residency, pins, LRU order, stats) — not the
        # engine passes themselves, which run outside it so that different
        # models can forecast concurrently.  Callers running *the same*
        # model concurrently must serialize externally (the gateway's
        # executor holds a per-model lock / routes to a per-model worker).
        self._registry_lock = threading.RLock()

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
            handle = self._models.hit(name)
            if handle is not None:
                return handle
            self._models.check_room([name])
            forecaster = self.store.load_model(name, verify=self.verify)
            handle = ModelHandle(
                name=name,
                forecaster=forecaster,
                entry=self.store.entry(name),
            )
            self._models.add(name, handle)  # evicted handles are simply dropped
            return handle

    def touch(self, name: str) -> bool:
        """Mark a resident model most-recently-used without reloading it
        (for consumers holding it across many uses); returns whether it
        was resident."""
        with self._registry_lock:
            return self._models.touch(self.store.resolve(name))

    def pin(self, name: str) -> ModelHandle:
        """Load the named model and exclude it from LRU eviction until
        every :meth:`pin` (one per open session) is matched by :meth:`unpin`."""
        with self._registry_lock:
            name = self.store.resolve(name)
            handle = self.load(name)
            self._models.pin(name)
            return handle

    def unpin(self, name: str) -> bool:
        """Release one pin on the named model; returns whether it was pinned."""
        with self._registry_lock:
            return self._models.unpin(self.store.resolve(name))

    def pinned(self) -> List[str]:
        """Names currently excluded from eviction, sorted."""
        with self._registry_lock:
            return self._models.pinned()

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
            return self._models.remove(name) is not None

    def loaded(self) -> List[str]:
        """Resident model names, least-recently-used first."""
        with self._registry_lock:
            return self._models.names()

    def available(self) -> List[str]:
        """Every artifact name the underlying store can serve."""
        return self.store.names()

    @property
    def stats(self) -> Dict[str, int]:
        with self._registry_lock:
            return self._models.stats

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
            # loading past the free slots would evict a batch-mate mid-flight
            self._models.check_room(list(names))
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
