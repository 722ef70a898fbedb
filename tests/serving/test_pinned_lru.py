"""Stateful test of ``PinnedLRU``, the residency policy of served models.

``ForecastService`` (in-process models) and ``WorkerSupervisor`` (worker
replicas) both keep their residents in one ``PinnedLRU``; this machine
drives random load/touch/pin/unpin/remove sequences against a plain-list
LRU reference and checks order, pins, victims and counters after every
step.  The class is not thread-safe by design, so a threaded test checks
that ``ForecastService`` keeps it consistent under its registry lock.
"""

import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.artifacts import ArtifactStore
from repro.data import build_race_features
from repro.models import CurRankForecaster
from repro.serving import ForecastService
from repro.serving.cache import PinnedLRU
from repro.simulation import RaceSimulator, track_for_year

NAMES = st.sampled_from(["a", "b", "c", "d", "e"])


class PinnedLRUMachine(RuleBasedStateMachine):
    @initialize(capacity=st.integers(min_value=1, max_value=4))
    def start(self, capacity):
        self.lru = PinnedLRU(capacity)
        self.capacity = capacity
        self.order = []  # least-recently-used first
        self.pins = {}
        self.values = {}  # name -> serial of its resident value
        self.counts = {"loads": 0, "hits": 0, "evictions": 0, "touches": 0}
        self.serial = 0

    def _promote(self, name):
        self.order.remove(name)
        self.order.append(name)

    @rule(name=NAMES)
    def load(self, name):
        """``ForecastService.load`` / ``WorkerSupervisor.ensure``: hit or add."""
        if name in self.order:
            assert self.lru.hit(name) == (name, self.values[name])
            self._promote(name)
            self.counts["hits"] += 1
            return
        assert self.lru.hit(name) is None
        if len(self.pins) >= self.capacity:
            with pytest.raises(ValueError, match="pinned"):
                self.lru.add(name, (name, -1))
            return
        self.serial += 1
        self.values[name] = self.serial
        victims = self.lru.add(name, (name, self.serial))
        self.order.append(name)
        self.counts["loads"] += 1
        expected = []
        while len(self.order) > self.capacity:
            victim = next(n for n in self.order if n not in self.pins)
            self.order.remove(victim)
            expected.append((victim, self.values.pop(victim)))
        self.counts["evictions"] += len(expected)
        assert victims == expected
        assert not any(victim in self.pins for victim, _ in victims)

    @rule(names=st.lists(NAMES, unique=True, max_size=5))
    def check_room(self, names):
        """``ForecastService.submit``'s guard: a batch must fit beside the
        pinned models outside it, or nothing is loaded."""
        free = self.capacity - len(set(self.pins) - set(names))
        if len(names) > free:
            with pytest.raises(ValueError, match="pinned"):
                self.lru.check_room(names)
        else:
            self.lru.check_room(names)

    @rule(name=NAMES)
    def touch(self, name):
        resident = name in self.order
        assert self.lru.touch(name) is resident
        if resident:
            self._promote(name)
            self.counts["touches"] += 1

    @rule(name=NAMES)
    def pin(self, name):
        if name not in self.order:
            with pytest.raises(KeyError):
                self.lru.pin(name)
            return
        self.lru.pin(name)
        self.pins[name] = self.pins.get(name, 0) + 1

    @rule(name=NAMES)
    def unpin(self, name):
        pinned = name in self.pins
        assert self.lru.unpin(name) is pinned
        if pinned:
            self.pins[name] -= 1
            if self.pins[name] == 0:
                del self.pins[name]

    @rule(name=NAMES)
    def remove(self, name):
        if name in self.pins:
            with pytest.raises(ValueError, match="pinned"):
                self.lru.remove(name)
            return
        if name in self.order:
            self.order.remove(name)
            assert self.lru.remove(name) == (name, self.values.pop(name))
        else:
            assert self.lru.remove(name) is None

    @invariant()
    def matches_the_reference(self):
        assert len(self.lru.names()) <= self.capacity
        assert self.lru.names() == self.order
        assert [value for value, _ in self.lru.values()] == self.order
        assert self.lru.pinned() == sorted(self.pins)
        assert set(self.pins) <= set(self.order)  # a pinned resident is never evicted
        for name in ["a", "b", "c", "d", "e"]:
            assert self.lru.pin_count(name) == self.pins.get(name, 0)
            assert self.lru.peek(name) == (
                (name, self.values[name]) if name in self.order else None
            )
        assert self.lru.stats == self.counts


PinnedLRUMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
test_pinned_lru_matches_a_list_reference = PinnedLRUMachine.TestCase


def test_full_of_pins_refuses_and_changes_nothing():
    lru = PinnedLRU(2)
    lru.add("a", 1)
    lru.add("b", 2)
    lru.pin("a")
    lru.pin("b")
    before = (lru.names(), lru.pinned(), lru.stats)
    with pytest.raises(ValueError, match="0 of 2 capacity slots are free"):
        lru.check_room(["c"])
    with pytest.raises(ValueError, match="pinned"):
        lru.add("c", 3)
    assert (lru.names(), lru.pinned(), lru.stats) == before
    lru.check_room(["a"])  # a pinned resident needs no new slot
    lru.unpin("b")
    lru.check_room(["b"])  # nor does an unpinned one
    with pytest.raises(ValueError, match="1 of 2"):
        lru.check_room(["b", "c"])  # two names, one slot beside the pinned "a"


def test_capacity_must_be_positive():
    with pytest.raises(ValueError, match="capacity"):
        PinnedLRU(0)


def test_service_registry_stays_consistent_under_concurrent_pins(tmp_path):
    track = replace(track_for_year("Indy500", 2018), total_laps=30, num_cars=6)
    series = build_race_features(RaceSimulator(track, event="Indy500", year=2019, seed=3).run())
    store = ArtifactStore(str(tmp_path))
    for name in ("a", "b", "c"):
        store.save_model(name, CurRankForecaster().fit(series))
    service = ForecastService(store, capacity=2)
    failures = []

    def pin_and_release():  # four sessions opening and closing on "a"
        try:
            for _ in range(1500):
                service.pin("a")
                if "a" not in service.loaded():
                    failures.append("a evicted while pinned")
                service.unpin("a")
        except Exception as exc:  # a lost update surfaces as a KeyError etc.
            failures.append(repr(exc))

    def load_others():  # eviction pressure from unrelated loads
        try:
            for i in range(300):
                service.load("bc"[i % 2])
        except Exception as exc:
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=pin_and_release) for _ in range(4)]
        threads.append(threading.Thread(target=load_others))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert service.pinned() == []  # every pin matched by its unpin
    stats = service.stats
    assert len(service.loaded()) == stats["loads"] - stats["evictions"] <= 2
