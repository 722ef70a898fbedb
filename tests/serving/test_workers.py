"""Worker-mode gateway tests: parity, health, isolation of crashes, failover.

These run the full HTTP gateway with ``workers: true`` — every model is a
real forked subprocess — and assert the contract that makes worker mode
invisible to well-behaved clients: byte-identical forecasts, structured
``worker_restarting`` envelopes during a respawn, and journal-replay
session failover that resumes a live race bitwise exactly.
"""

import json
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.artifacts import ArtifactStore
from repro.data import build_race_features
from repro.models import DeepARForecaster
from repro.profiling.chaos import kill_gateway
from repro.serving import ForecastClient, ForecastService
from repro.serving.resilience import RetryPolicy, WorkerRestartingError
from repro.serving.server import ForecastGateway, ForecastServer, ServerConfig
from repro.serving.sessions import replay_race
from repro.serving.smoke import _spawn_server
from repro.simulation import RaceSimulator, track_for_year

DEEP_KWARGS = dict(
    encoder_length=12,
    decoder_length=2,
    hidden_dim=8,
    num_layers=1,
    epochs=1,
    batch_size=32,
    max_train_windows=150,
)

KILL_AT_LAP = 20


@pytest.fixture(scope="module")
def race():
    track = replace(track_for_year("Indy500", 2018), total_laps=45, num_cars=8)
    return RaceSimulator(track, event="Indy500", year=2019, seed=3).run()


@pytest.fixture(scope="module")
def tiny_series(race):
    return build_race_features(race)


@pytest.fixture(scope="module")
def store_root(tmp_path_factory, tiny_series):
    root = str(tmp_path_factory.mktemp("workers-store"))
    store = ArtifactStore(root)
    model = DeepARForecaster(seed=5, **DEEP_KWARGS).fit(tiny_series[:4])
    # the same fitted artifact under two names: two independent worker
    # replicas whose outputs are directly comparable
    store.save_model("deepar", model)
    store.save_model("deepar-b", model)
    return root


def _worker_config(store_root, **overrides):
    options = dict(
        store=store_root,
        port=0,
        capacity=2,
        batch_window_ms=2.0,
        workers=True,
        preload=["deepar"],
        heartbeat_interval_s=0.1,
        heartbeat_timeout_s=1.0,
        worker_backoff_s=0.02,
    )
    options.update(overrides)
    return ServerConfig(**options)


@pytest.fixture(scope="module")
def server(store_root):
    with ForecastServer(_worker_config(store_root)) as running:
        yield running


@pytest.fixture()
def client(server):
    return ForecastClient(port=server.port)


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


def _worker(gateway, model):
    return next(w for w in gateway.executor.describe() if w["model"] == model)


# ----------------------------------------------------------------------
# parity and health
# ----------------------------------------------------------------------
def test_worker_mode_forecast_is_byte_identical_to_in_process(
    client, store_root, tiny_series
):
    service = ForecastService(ArtifactStore(store_root))
    forecaster = service.load("deepar").forecaster
    series = tiny_series[0]
    batch = lambda: [_named(forecaster, series, 20 + i, 11 + i) for i in range(3)]  # noqa: E731

    via_http = client.forecast(batch())
    direct = service.submit(batch())
    for got, expected in zip(via_http, direct):
        np.testing.assert_array_equal(got, expected)


def test_health_reports_workers_uptime_and_pool_stats(client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["uptime_s"] >= 0.0
    workers = {w["model"]: w for w in health["workers"]}
    assert "deepar" in workers
    assert {
        "model",
        "pid",
        "state",
        "restarts",
        "episode",
        "queue_depth",
        "pinned",
        "uptime_s",
    } <= set(workers["deepar"])
    assert workers["deepar"]["state"] == "live" and workers["deepar"]["pid"]
    assert {"spawns", "restarts", "heartbeat_kills", "shed"} <= set(health["worker_pool"])


# ----------------------------------------------------------------------
# crash isolation
# ----------------------------------------------------------------------
def test_batch_mates_survive_a_worker_death_byte_identically(
    server, store_root, tiny_series
):
    """A mixed batch whose other model's worker dies still settles cleanly.

    The killed model's requests fail structured-and-retryable; the
    survivor's settle byte-identical to submitting them alone.
    """
    gateway = server.gateway
    service = ForecastService(ArtifactStore(store_root))
    forecaster = service.load("deepar").forecaster
    series = tiny_series[0]
    gateway.executor.ensure("deepar-b")

    solo = service.submit([_named(forecaster, series, 24, 41), _named(forecaster, series, 26, 43)])

    gateway.inject_worker_fault("kill_worker", "deepar-b")
    mixed = [
        _named(forecaster, series, 24, 41),
        _named(forecaster, series, 25, 99, model="deepar-b"),
        _named(forecaster, series, 26, 43),
        _named(forecaster, series, 27, 98, model="deepar-b"),
    ]
    settled = gateway.submit_settled(mixed)

    np.testing.assert_array_equal(settled[0], solo[0])
    np.testing.assert_array_equal(settled[2], solo[1])
    for outcome in (settled[1], settled[3]):
        assert isinstance(outcome, (RuntimeError, WorkerRestartingError)), outcome
    # and the dead batch-mate comes back on its own
    assert _wait(
        lambda: _worker(gateway, "deepar-b")["state"] == "live"
        and _worker(gateway, "deepar-b")["restarts"] >= 1
    )


def test_forecasts_during_restart_get_structured_worker_restarting(store_root, tiny_series):
    config = _worker_config(store_root, worker_backoff_s=30.0)
    gateway = ForecastGateway(config)
    try:
        service = ForecastService(ArtifactStore(store_root))
        forecaster = service.load("deepar").forecaster
        gateway.inject_worker_fault("kill_worker", "deepar")
        assert _wait(lambda: _worker(gateway, "deepar")["state"] != "live", timeout=10.0)

        settled = gateway.submit_settled([_named(forecaster, tiny_series[0], 20, 11)])
        assert isinstance(settled[0], WorkerRestartingError)
        assert settled[0].status == 503
        assert settled[0].detail["retry_after_ms"] > 0

        # health keeps answering, with per-worker state and breaker map,
        # while the replica is down
        health = gateway._handle_health(None)
        assert health["status"] == "ok"
        assert _worker(gateway, "deepar")["state"] in ("restarting", "failed")
        assert isinstance(health["breakers"], dict)
    finally:
        gateway.close()


# ----------------------------------------------------------------------
# session failover
# ----------------------------------------------------------------------
def test_http_session_resumes_byte_identically_across_worker_kill(
    server, client, store_root, race
):
    """The tentpole acceptance gate, over real HTTP with client retries.

    The worker serving a live session is SIGKILLed mid-race; the client's
    retry policy rides out the restart window, the supervisor replays the
    session journal into the replacement replica, and the streamed
    forecasts stay bitwise equal to an uncrashed in-process run.
    """
    gateway = server.gateway
    retry_client = ForecastClient(
        port=server.port, retry=RetryPolicy(max_attempts=8, base_delay_s=0.05, seed=7)
    )
    restarts_before = _worker(gateway, "deepar")["restarts"]
    recovered_before = gateway.sessions_recovered

    session = retry_client.open_session(
        "deepar", horizon=2, n_samples=5, min_history=12, rng=0,
        start=14, stop=30, delay=4, event=race.event, year=race.year,
    )
    streamed = []
    for lap, records in race.iter_laps():
        if lap == KILL_AT_LAP:
            assert gateway.inject_worker_fault("kill_worker", "deepar")
        streamed.extend(session.lap(lap, records))
    streamed.extend(session.close())

    reference = list(
        replay_race(
            ArtifactStore(store_root).load_model("deepar"), race,
            horizon=2, n_samples=5, min_history=12, rng=0, start=14, stop=30,
        )
    )
    assert [origin for origin, _ in streamed] == [origin for origin, _ in reference]
    for (origin, got), (_, expected) in zip(streamed, reference):
        for car_id in set(got) | set(expected):
            np.testing.assert_array_equal(got.get(car_id), expected.get(car_id))

    assert gateway.sessions_recovered >= recovered_before + 1
    assert gateway.recovery_errors == []
    assert _worker(gateway, "deepar")["restarts"] >= restarts_before + 1
    # the closed session's journal was removed on the clean close
    assert gateway.journal_dir is not None
    assert not any(
        name.startswith(session.session_id) for name in os.listdir(gateway.journal_dir)
    )


# ----------------------------------------------------------------------
# a SIGKILLed gateway takes its replicas and its port with it
# ----------------------------------------------------------------------
HEARTBEAT_TIMEOUT_S = 1.0


@pytest.fixture()
def killed_gateway(store_root, tiny_series, tmp_path, monkeypatch):
    """A ``repro-serve`` subprocess with two replicas, SIGKILLed.

    Yields ``(replica pids, replicas alive two heartbeat deadlines later,
    port bindable right after the kill)``.
    """
    src = os.path.dirname(os.path.dirname(repro.__file__))
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    )
    config = tmp_path / "serve.json"
    config.write_text(
        json.dumps(
            {
                "store": store_root,
                "port": 0,
                "capacity": 2,
                "workers": True,
                "batch_window_ms": 2.0,
                "heartbeat_interval_s": 0.1,
                "heartbeat_timeout_s": HEARTBEAT_TIMEOUT_S,
                "worker_backoff_s": 0.02,
            }
        )
    )
    process, port = _spawn_server(str(config))
    threading.Thread(target=process.stdout.read, daemon=True).start()
    try:
        client = ForecastClient(port=port)
        forecaster = ForecastService(ArtifactStore(store_root)).load("deepar").forecaster
        # no preload: both replicas fork after the port is bound, so each
        # inherits the listening socket, and the second the first's pipes
        for model in ("deepar", "deepar-b"):
            client.forecast([_named(forecaster, tiny_series[0], 20, 1, model=model)])
        yield kill_gateway(process, client, 2 * HEARTBEAT_TIMEOUT_S)
    finally:
        process.kill()
        process.wait()


def test_replicas_exit_within_two_heartbeat_deadlines_of_a_gateway_sigkill(
    killed_gateway,
):
    pids, orphans, _ = killed_gateway
    assert len(pids) == 2
    assert orphans == []


def test_port_binds_again_right_after_a_gateway_sigkill(killed_gateway):
    _, _, port_free = killed_gateway
    assert port_free
