"""WorkerSupervisor tests: parity, heartbeats, restart budget, shedding.

Every test runs real forked worker processes against a tiny fitted store;
``min_uptime_s`` is pinned high so crash episodes accumulate
deterministically (a replica never "earns back" its budget mid-test).
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.artifacts import ArtifactStore
from repro.data import build_race_features
from repro.models import CurRankForecaster, DeepARForecaster
from repro.serving import ForecastClient, ForecastService
from repro.serving.resilience import OverloadedError, WorkerRestartingError
from repro.serving.supervisor import (
    FAILED,
    LIVE,
    RaceSessionProxy,
    WorkerSupervisor,
)
from repro.serving.wire import rng_to_wire
from repro.simulation import LiveRaceForecaster, RaceSimulator, track_for_year

DEEP_KWARGS = dict(
    encoder_length=12,
    decoder_length=2,
    hidden_dim=8,
    num_layers=1,
    epochs=1,
    batch_size=32,
    max_train_windows=150,
)


@pytest.fixture(scope="module")
def race():
    track = replace(track_for_year("Indy500", 2018), total_laps=45, num_cars=8)
    return RaceSimulator(track, event="Indy500", year=2019, seed=3).run()


@pytest.fixture(scope="module")
def tiny_series(race):
    return build_race_features(race)


@pytest.fixture(scope="module")
def store_root(tmp_path_factory, tiny_series):
    root = str(tmp_path_factory.mktemp("supervisor-store"))
    store = ArtifactStore(root)
    store.save_model("deepar", DeepARForecaster(seed=5, **DEEP_KWARGS).fit(tiny_series[:4]))
    store.save_model("naive", CurRankForecaster().fit(tiny_series[:4]))
    return root


@pytest.fixture()
def supervisor(store_root):
    sup = WorkerSupervisor(
        store_root,
        capacity=2,
        restart_budget=2,
        backoff_base_s=0.02,
        min_uptime_s=3600.0,
        heartbeat_interval_s=0.1,
        heartbeat_timeout_s=1.0,
    )
    yield sup
    sup.close()


def _named(forecaster, series, origin, seed, model="deepar", n_samples=7, horizon=2):
    return ForecastClient.request(
        model,
        forecaster._history_target(series, origin),
        forecaster._history_covariates(series, origin),
        forecaster._future_covariates(series, origin, horizon),
        n_samples=n_samples,
        rng=seed,
        key=(series.race_id, series.car_id),
        origin=origin,
    )


def _wait(predicate, timeout=60.0, step=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return False


def _describe(sup, model):
    return next(d for d in sup.describe() if d["model"] == model)


# ----------------------------------------------------------------------
# routing and parity
# ----------------------------------------------------------------------
def test_worker_forecast_is_byte_identical_to_in_process(supervisor, store_root, tiny_series):
    service = ForecastService(ArtifactStore(store_root))
    forecaster = service.load("deepar").forecaster
    series = tiny_series[0]
    batch = lambda: [_named(forecaster, series, 20 + i, 11 + i) for i in range(3)]  # noqa: E731

    via_worker = supervisor.submit("deepar", batch())
    direct = service.submit(batch())
    assert len(via_worker) == 3
    for got, expected in zip(via_worker, direct):
        np.testing.assert_array_equal(got, expected)
    entry = _describe(supervisor, "deepar")
    assert entry["state"] == LIVE and entry["pid"] and entry["restarts"] == 0


def test_capacity_eviction_respects_pins(supervisor):
    supervisor.pin("deepar")
    supervisor.ensure("naive")
    assert supervisor.models() == ["deepar", "naive"]
    # both slots taken, one pinned: the unpinned replica is the LRU victim
    supervisor.touch("naive")
    with pytest.raises(ValueError, match="pinned"):
        supervisor.stop("deepar")
    assert supervisor.unpin("deepar") is True
    assert supervisor.stop("deepar") is True
    assert supervisor.models() == ["naive"]


def test_full_worker_queue_sheds_with_retry_hint(supervisor):
    handle = supervisor.ensure("naive")
    handle.depth = supervisor.queue_limit  # simulate a saturated replica
    with pytest.raises(OverloadedError) as excinfo:
        supervisor.submit("naive", [])
    assert excinfo.value.detail["retry_after_ms"] >= 50
    assert supervisor.worker_pool["shed"] == 1
    handle.depth = 0
    supervisor.submit("naive", [])  # drained queue accepts again


# ----------------------------------------------------------------------
# crash detection and restarts
# ----------------------------------------------------------------------
def test_killed_worker_restarts_with_a_new_pid(supervisor, store_root, tiny_series):
    service = ForecastService(ArtifactStore(store_root))
    forecaster = service.load("deepar").forecaster
    series = tiny_series[0]
    expected = service.submit([_named(forecaster, series, 22, 17)])[0]

    first_pid = supervisor.ensure("deepar").pid
    assert supervisor.kill_worker("deepar") == first_pid
    assert _wait(
        lambda: _describe(supervisor, "deepar")["state"] == LIVE
        and _describe(supervisor, "deepar")["restarts"] == 1
    )
    entry = _describe(supervisor, "deepar")
    assert entry["pid"] != first_pid
    assert entry["last_failure"]  # the crash reason survives the restart
    assert supervisor.worker_pool["restarts"] == 1
    # the replacement replica serves byte-identical forecasts
    got = supervisor.submit("deepar", [_named(forecaster, series, 22, 17)])[0]
    np.testing.assert_array_equal(got, expected)


def test_hung_worker_misses_heartbeats_and_is_killed(supervisor):
    supervisor.ensure("naive")
    assert supervisor.hang_worker("naive") is not None  # SIGSTOP, not SIGKILL
    assert _wait(
        lambda: _describe(supervisor, "naive")["restarts"] >= 1
        and _describe(supervisor, "naive")["state"] == LIVE
    )
    assert supervisor.worker_pool["heartbeat_kills"] >= 1
    assert "heartbeat" in _describe(supervisor, "naive")["last_failure"]


def test_calls_during_restart_backoff_get_worker_restarting(store_root):
    sup = WorkerSupervisor(
        store_root,
        backoff_base_s=30.0,
        backoff_max_s=30.0,
        min_uptime_s=3600.0,
        heartbeat_interval_s=0.05,
        heartbeat_timeout_s=1.0,
    )
    try:
        sup.ensure("naive")
        sup.kill_worker("naive")
        assert _wait(lambda: _describe(sup, "naive")["state"] != LIVE, timeout=10.0)
        with pytest.raises(WorkerRestartingError) as excinfo:
            sup.submit("naive", [])
        assert excinfo.value.code == "worker_restarting"
        assert excinfo.value.status == 503
        assert excinfo.value.detail["retry_after_ms"] > 0
    finally:
        # closing mid-backoff must not leak a respawned orphan process
        sup.close()
    assert sup.describe() == []


def test_restart_budget_exhaustion_marks_the_replica_failed(store_root):
    sup = WorkerSupervisor(
        store_root,
        restart_budget=1,
        backoff_base_s=0.01,
        min_uptime_s=3600.0,
        heartbeat_interval_s=0.05,
        heartbeat_timeout_s=1.0,
    )
    try:
        sup.ensure("naive")
        sup.kill_worker("naive")  # episode 1: within budget, restarts
        assert _wait(lambda: _describe(sup, "naive")["restarts"] == 1)
        sup.kill_worker("naive")  # episode 2: budget (1) exhausted
        assert _wait(lambda: _describe(sup, "naive")["state"] == FAILED)
        entry = _describe(sup, "naive")
        assert "restart budget" in entry["last_failure"]
        with pytest.raises(WorkerRestartingError) as excinfo:
            sup.submit("naive", [])
        assert excinfo.value.detail["retry_after_ms"] == 5000
    finally:
        sup.close()


# ----------------------------------------------------------------------
# worker-resident sessions
# ----------------------------------------------------------------------
def test_session_proxy_accepts_raw_lap_records(supervisor, store_root, race):
    """LapRecord objects are normalised before crossing the pipe."""
    document = {
        "model": "deepar",
        "horizon": 2,
        "n_samples": 5,
        "min_history": 12,
        "start": 14,
        "stop": 20,
        "rng": rng_to_wire(0),
        "delay": 4,
        "event": race.event,
        "year": race.year,
    }
    proxy = supervisor.open_session("deepar", "sess-test", document)
    assert isinstance(proxy, RaceSessionProxy)
    assert (proxy.model, proxy.session_id) == ("deepar", "sess-test")
    assert (proxy.latest_lap, proxy.laps_observed, proxy.forecasts_emitted) == (0, 0, 0)
    streamed = []
    for lap, records in race.iter_laps():
        emitted, replayed = proxy.apply_lap(lap, list(records))
        assert replayed is False
        streamed.extend(emitted)
        if lap >= 22:
            break
    streamed.extend(proxy.finish())
    assert proxy.laps_observed > 0

    live = LiveRaceForecaster(
        ArtifactStore(store_root).load_model("deepar"),
        horizon=2,
        n_samples=5,
        min_history=12,
        rng=0,
    )
    reference = list(live.stream(race, start=14, stop=20))
    assert [origin for origin, _ in streamed] == [origin for origin, _ in reference]
    for (origin, got), (_, expected) in zip(streamed, reference):
        for car_id in set(got) | set(expected):
            np.testing.assert_array_equal(got.get(car_id), expected.get(car_id))
