"""Serving caches: the fleet engine's ``carry``-mode warm-up states, and
the residency policy of served models shared by ``ForecastService``
(in-process models) and ``WorkerSupervisor`` (worker replicas)."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

import numpy as np

__all__ = ["CachedWarmup", "PinnedLRU", "WarmupStateCache"]


@dataclass
class CachedWarmup:
    """Recurrent state of one car after consuming history through ``origin``.

    ``scale`` is frozen when the entry is first created: carrying a
    recurrent state across origins is only self-consistent if the target
    scaling that produced the LSTM inputs does not change between origins.
    """

    origin: int
    scale: np.ndarray        # (target_dim,) frozen target scale
    packed_state: np.ndarray  # stack.export_state(...) with batch size 1
    z_last: np.ndarray       # (target_dim,) scaled target observed at ``origin``


class WarmupStateCache:
    """Bounded LRU cache mapping a car key to its :class:`CachedWarmup`."""

    def __init__(self, max_entries: int = 512) -> None:
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, CachedWarmup]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.carries = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[CachedWarmup]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Hashable, entry: CachedWarmup) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, key: Optional[Hashable] = None) -> None:
        """Drop one entry (or everything when ``key`` is ``None``)."""
        if key is None:
            self._entries.clear()
        else:
            self._entries.pop(key, None)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "carries": self.carries,
            "evictions": self.evictions,
        }


class PinnedLRU:
    """Capacity-bounded LRU of named residents, with nested pins.

    A pinned resident is never evicted or removed (a live session pins its
    model so that LRU pressure cannot reset its carried warm-up states).
    Not thread-safe: the owner calls it under its own lock and disposes of
    the victims :meth:`add` hands back.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._residents: "OrderedDict[str, object]" = OrderedDict()  # LRU first
        self._pins: Dict[str, int] = {}
        self._stats = {"loads": 0, "hits": 0, "evictions": 0, "touches": 0}

    def peek(self, name: str):
        """The resident ``name`` (or ``None``), recency untouched."""
        return self._residents.get(name)

    def hit(self, name: str):
        value = self._residents.get(name)
        if value is not None:
            self._residents.move_to_end(name)
            self._stats["hits"] += 1
        return value

    def touch(self, name: str) -> bool:
        if name not in self._residents:
            return False
        self._residents.move_to_end(name)
        self._stats["touches"] += 1
        return True

    def check_room(self, names: List[str]) -> None:
        """Refuse (``ValueError``) distinct ``names`` that cannot all be
        resident at once beside the pinned residents outside them."""
        pinned = sorted(n for n in self._pins if n not in names)
        free = self.capacity - len(pinned)
        if len(names) > free:
            raise ValueError(
                f"cannot hold {sorted(names)} at once: {free} of {self.capacity} "
                f"capacity slots are free, the rest are held by pinned models "
                f"{pinned}; raise the capacity, split the batch or close the "
                "sessions pinning them"
            )

    def add(self, name: str, value) -> list:
        """Add the most-recently-used resident; returns the evicted values."""
        self.check_room([name])
        self._residents[name] = value
        self._residents.move_to_end(name)
        self._stats["loads"] += 1
        victims = []
        while len(self._residents) > self.capacity:
            victim = next(n for n in self._residents if n not in self._pins)
            victims.append(self._residents.pop(victim))
            self._stats["evictions"] += 1
        return victims

    def remove(self, name: str):
        if name in self._pins:
            raise ValueError(
                f"model {name!r} is pinned by {self._pins[name]} active consumer(s) "
                "and cannot be unloaded"
            )
        return self._residents.pop(name, None)

    def clear(self) -> list:
        values = self.values()
        self._residents.clear()
        self._pins.clear()
        return values

    def pin(self, name: str) -> None:
        if name not in self._residents:
            raise KeyError(f"cannot pin {name!r}: it is not resident")
        self._pins[name] = self._pins.get(name, 0) + 1

    def unpin(self, name: str) -> bool:
        if name not in self._pins:
            return False
        self._pins[name] -= 1
        if not self._pins[name]:
            del self._pins[name]
        return True

    def pin_count(self, name: str) -> int:
        return self._pins.get(name, 0)

    def pinned(self) -> List[str]:
        return sorted(self._pins)

    def names(self) -> List[str]:
        return list(self._residents)

    def values(self) -> list:
        return list(self._residents.values())

    @property
    def stats(self) -> Dict[str, int]:
        return dict(self._stats)
