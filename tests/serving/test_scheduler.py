"""MicroBatchScheduler: cross-client coalescing with byte-identical results."""

import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.artifacts import ArtifactStore
from repro.data import build_race_features
from repro.models import CurRankForecaster, DeepARForecaster
from repro.serving import ForecastService, NamedForecastRequest
from repro.serving.scheduler import MicroBatchScheduler
from repro.simulation import RaceSimulator, track_for_year

DEEP_KWARGS = dict(
    encoder_length=12,
    decoder_length=2,
    hidden_dim=8,
    num_layers=1,
    epochs=1,
    batch_size=32,
    max_train_windows=200,
)


@pytest.fixture(scope="module")
def tiny_series():
    track = replace(track_for_year("Indy500", 2018), total_laps=70, num_cars=8)
    race = RaceSimulator(track, event="Indy500", year=2017, seed=13).run()
    return build_race_features(race)


@pytest.fixture(scope="module")
def store(tmp_path_factory, tiny_series):
    root = str(tmp_path_factory.mktemp("scheduler-store"))
    store = ArtifactStore(root)
    model = DeepARForecaster(seed=5, **DEEP_KWARGS).fit(tiny_series[:5])
    store.save_model("deepar", model)
    store.save_model("naive", CurRankForecaster().fit(tiny_series[:5]))
    return store


def _named(forecaster, series, origin, seed, n_samples=6, horizon=3):
    return NamedForecastRequest(
        "deepar",
        forecaster._fleet_request(
            series,
            origin,
            forecaster._future_covariates(series, origin, horizon),
            n_samples,
            np.random.default_rng(seed),
        ),
    )


def test_three_concurrent_clients_coalesce_into_one_byte_identical_batch(store, tiny_series):
    service = ForecastService(store, capacity=2)
    forecaster = service.load("deepar").forecaster
    series = tiny_series[0]

    client_requests = {
        client: [_named(forecaster, series, 20 + client, 100 * client + i) for i in range(4)]
        for client in range(3)
    }
    # reference: every client's requests submitted directly, client by client
    reference = {
        client: service.submit(
            [
                _named(forecaster, series, 20 + client, 100 * client + i)
                for i in range(4)
            ]
        )
        for client in range(3)
    }

    scheduler = MicroBatchScheduler(service.submit, window=1.0, max_batch=64)
    results: dict = {}
    barrier = threading.Barrier(3)

    def run_client(client):
        barrier.wait()
        results[client] = scheduler.submit(client_requests[client])

    threads = [threading.Thread(target=run_client, args=(c,)) for c in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    scheduler.close()

    for client in range(3):
        assert len(results[client]) == 4
        for got, expected in zip(results[client], reference[client]):
            np.testing.assert_array_equal(got, expected)

    stats = scheduler.stats
    assert stats["requests"] == 12
    assert stats["batches"] == 1, stats  # one coalesced fleet pass for all clients
    assert stats["coalesced_batches"] == 1
    assert stats["max_batch_requests"] == 12


def test_max_batch_splits_but_results_are_unchanged(store, tiny_series):
    service = ForecastService(store, capacity=2)
    forecaster = service.load("deepar").forecaster
    series = tiny_series[0]
    requests = [_named(forecaster, series, 22, seed) for seed in range(5)]
    reference = service.submit([_named(forecaster, series, 22, seed) for seed in range(5)])

    with MicroBatchScheduler(service.submit, window=0.05, max_batch=2) as scheduler:
        results = scheduler.submit(requests)
        stats = scheduler.stats
    for got, expected in zip(results, reference):
        np.testing.assert_array_equal(got, expected)
    assert stats["batches"] >= 3  # ceil(5 / 2)
    assert stats["flush_full"] >= 2


def test_bad_request_is_isolated_from_its_batch_mates(store, tiny_series):
    service = ForecastService(store, capacity=1)
    forecaster = service.load("deepar").forecaster
    series = tiny_series[0]
    good = _named(forecaster, series, 20, 7)
    bad = NamedForecastRequest("no-such-model", good.request)
    reference = service.submit([_named(forecaster, series, 20, 7)])

    with MicroBatchScheduler(service.submit, window=0.02) as scheduler:
        settled = scheduler.submit_settled([good, bad])
        stats = scheduler.stats
    np.testing.assert_array_equal(settled[0], reference[0])
    assert isinstance(settled[1], Exception)
    assert stats["isolated_retries"] == 2

    # submit() surfaces the failure as an exception
    with MicroBatchScheduler(service.submit, window=0.02) as scheduler:
        with pytest.raises(Exception, match="no-such-model"):
            scheduler.submit([bad])


def test_retry_after_partial_batch_failure_replays_consumed_rng_streams(store, tiny_series):
    """A failing coalesced batch may already have consumed some requests'
    generators (the per-model engine passes run sequentially before the
    failure) — the isolation retry must restore their states, or the
    retried results silently stop matching direct submission."""
    service = ForecastService(store, capacity=2)
    forecaster = service.load("deepar").forecaster
    series = tiny_series[0]
    reference = service.submit([_named(forecaster, series, 20, 7)])

    good = _named(forecaster, series, 20, 7)
    # "naive" loads fine but has no fleet engine, so service.submit raises
    # only after deepar's pass already ran (and consumed good's generator)
    bad = NamedForecastRequest("naive", _named(forecaster, series, 20, 8).request)
    with MicroBatchScheduler(service.submit, window=0.02) as scheduler:
        settled = scheduler.submit_settled([good, bad])
    np.testing.assert_array_equal(settled[0], reference[0])
    assert isinstance(settled[1], TypeError)


def test_empty_submit_and_close_semantics(store):
    service = ForecastService(store, capacity=1)
    scheduler = MicroBatchScheduler(service.submit, window=0.01)
    assert scheduler.submit([]) == []
    scheduler.close()
    scheduler.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        scheduler.submit([object()])


def test_parameter_validation(store):
    service = ForecastService(store, capacity=1)
    with pytest.raises(ValueError):
        MicroBatchScheduler(service.submit, window=-1.0)
    with pytest.raises(ValueError):
        MicroBatchScheduler(service.submit, max_batch=0)
    # NaN would spin the worker on zero-length waits, inf would kill it
    for window in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="window"):
            MicroBatchScheduler(service.submit, window=window)


# ----------------------------------------------------------------------
# adaptive hold (no engine: a stub submit_fn keeps these fast and exact)
# ----------------------------------------------------------------------
WINDOW = 0.0064  # 6400 us: halving is exact down to window / 64 = 100 us


def _stub(n=1):
    return [SimpleNamespace(request=SimpleNamespace(rng=None)) for _ in range(n)]


def _echo(requests):
    return [np.zeros(1) for _ in requests]


def test_lone_caller_halves_the_hold_down_to_zero():
    with MicroBatchScheduler(_echo, window=WINDOW) as scheduler:
        assert scheduler.stats["hold_us"] == 6400  # a new scheduler starts at the ceiling
        holds = []
        for _ in range(8):
            scheduler.submit(_stub())
            holds.append(scheduler.stats["hold_us"])
        stats = scheduler.stats
    # halves per one-caller flush; snaps to 0 once below window / 64
    assert holds == [3200, 1600, 800, 400, 200, 100, 0, 0]
    assert stats["flush_window"] == 7  # every flush but the last was held
    assert stats["flush_immediate"] == 1
    assert stats["coalesced_batches"] == 0


def test_coalesced_batch_restores_the_ceiling():
    entered, release = threading.Event(), threading.Event()
    blocking = {"on": False}

    def submit_fn(requests):
        if blocking["on"]:
            blocking["on"] = False
            entered.set()
            release.wait(timeout=30)
        return _echo(requests)

    with MicroBatchScheduler(submit_fn, window=WINDOW) as scheduler:
        while scheduler.stats["hold_us"] > 0:
            scheduler.submit(_stub())
        blocking["on"] = True
        first = scheduler.enqueue(_stub())  # flushed at once, then blocks the worker
        assert entered.wait(timeout=30)
        held = scheduler.stats["flush_window"]
        # two more calls arrive while the engine runs: they share the next batch
        joined = scheduler.enqueue(_stub(2)) + scheduler.enqueue(_stub())
        release.set()
        outcomes = scheduler.collect(first + joined)
        stats = scheduler.stats
    assert all(isinstance(outcome, np.ndarray) for outcome in outcomes)
    assert stats["coalesced_batches"] == 1
    assert stats["max_batch_requests"] == 3
    assert stats["flush_immediate"] == 1  # the lone batch
    assert stats["flush_window"] == held + 1  # the coalesced one, held at the ceiling
    assert stats["hold_us"] == 6400  # back at the ceiling


def test_caller_queued_behind_an_engine_pass_restores_the_ceiling():
    # two alternating closed-loop callers A and B: B enqueues while A's lone
    # batch runs, so A's next call must join B's batch rather than the two
    # taking turns with one-call batches at hold 0
    window = 0.32  # halving is exact down to window / 64 = 5000 us
    entered, release = threading.Event(), threading.Event()
    blocking = {"on": False}
    batches = []

    def submit_fn(requests):
        batches.append(len(requests))
        if blocking["on"]:
            blocking["on"] = False
            entered.set()
            release.wait(timeout=30)
        return _echo(requests)

    # max_batch=2: the shared batch flushes as soon as A joins B
    with MicroBatchScheduler(submit_fn, window=window, max_batch=2) as scheduler:
        while scheduler.stats["hold_us"] > 0:
            scheduler.submit(_stub())
        blocking["on"] = True
        del batches[:]
        a_first = scheduler.enqueue(_stub())  # A alone, flushed at once
        assert entered.wait(timeout=30)
        b = scheduler.enqueue(_stub())  # B, queued behind A's pass
        assert scheduler.stats["hold_us"] == 320000
        release.set()
        assert isinstance(scheduler.collect(a_first)[0], np.ndarray)
        a_next = scheduler.enqueue(_stub())  # A again, on its own result
        outcomes = scheduler.collect(b + a_next)
        stats = scheduler.stats
    assert all(isinstance(outcome, np.ndarray) for outcome in outcomes)
    assert batches == [1, 2]
    assert stats["coalesced_batches"] == 1
    assert stats["flush_full"] == 1
    assert stats["hold_us"] == 320000


def test_close_flushes_a_held_batch_as_a_close_flush():
    scheduler = MicroBatchScheduler(_echo, window=60.0)
    entries = scheduler.enqueue(_stub(2))
    scheduler.close()
    assert all(isinstance(outcome, np.ndarray) for outcome in scheduler.collect(entries))
    stats = scheduler.stats
    assert stats["flush_close"] == 1
    assert stats["flush_window"] == stats["flush_immediate"] == stats["flush_full"] == 0
