"""End-to-end tests of the HTTP gateway: wire API, byte-identity, errors."""

import json
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.artifacts import ArtifactStore
from repro.data import build_race_features
from repro.models import CurRankForecaster, DeepARForecaster, RankNetForecaster
from repro.serving import ForecastClient, ForecastService, ServerError
from repro.serving.server import ForecastGateway, ForecastServer, ServerConfig
from repro.serving.sessions import replay_race
from repro.simulation import RaceSimulator, track_for_year
from repro.strategy import PitStrategyOptimizer

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
def race():
    track = replace(track_for_year("Indy500", 2018), total_laps=60, num_cars=8)
    return RaceSimulator(track, event="Indy500", year=2019, seed=3).run()


@pytest.fixture(scope="module")
def tiny_series(race):
    return build_race_features(race)


@pytest.fixture(scope="module")
def store_root(tmp_path_factory, tiny_series):
    root = str(tmp_path_factory.mktemp("server-store"))
    store = ArtifactStore(root)
    store.save_model("deepar", DeepARForecaster(seed=5, **DEEP_KWARGS).fit(tiny_series[:4]))
    store.save_model(
        "oracle", RankNetForecaster(variant="oracle", seed=6, **DEEP_KWARGS).fit(tiny_series[:4])
    )
    store.save_model("naive", CurRankForecaster().fit(tiny_series[:4]))
    return root


@pytest.fixture(scope="module")
def server(store_root):
    config = ServerConfig(store=store_root, port=0, capacity=3, batch_window_ms=2.0)
    with ForecastServer(config) as running:
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


# ----------------------------------------------------------------------
# models
# ----------------------------------------------------------------------
def test_health_and_model_catalog(client):
    assert client.health()["status"] == "ok"
    models = client.models()
    assert {m["name"] for m in models} == {"deepar", "oracle", "naive"}
    for entry in models:
        assert {"family", "sha256", "loaded", "pinned"} <= set(entry)


def test_model_load_unload_roundtrip(client):
    assert client.load("naive")["name"] == "naive"
    assert "naive" in client.loaded()
    assert client.unload("naive") is True
    assert client.unload("naive") is False
    with pytest.raises(ServerError) as excinfo:
        client.load("no-such-model")
    assert excinfo.value.code == "unknown_model" and excinfo.value.status == 404


# ----------------------------------------------------------------------
# forecasting
# ----------------------------------------------------------------------
def test_http_forecast_is_byte_identical_to_direct_submit(client, server, store_root, tiny_series):
    series = tiny_series[0]
    forecaster = server.gateway.service.load("deepar").forecaster
    batch = [_named(forecaster, series, 20, 11), _named(forecaster, series, 25, 12)]
    via_http = client.forecast(batch)

    direct_service = ForecastService(ArtifactStore(store_root))
    direct = direct_service.submit(
        [_named(forecaster, series, 20, 11), _named(forecaster, series, 25, 12)]
    )
    for got, expected in zip(via_http, direct):
        np.testing.assert_array_equal(got, expected)


def test_concurrent_clients_through_the_scheduler_stay_byte_identical(
    client, server, store_root, tiny_series
):
    """Acceptance gate: >= 3 concurrent clients coalesced by the micro-batcher."""
    series = tiny_series[0]
    gateway_service = server.gateway.service
    deepar = gateway_service.load("deepar").forecaster
    oracle = gateway_service.load("oracle").forecaster

    def batch_for(client_id):
        model, forecaster = (
            ("deepar", deepar) if client_id % 2 == 0 else ("oracle", oracle)
        )
        return [
            _named(forecaster, series, 20 + client_id, 1000 * client_id + i, model=model)
            for i in range(3)
        ]

    reference_service = ForecastService(ArtifactStore(store_root), capacity=2)
    reference = {c: reference_service.submit(batch_for(c)) for c in range(4)}

    results: dict = {}
    errors: list = []
    barrier = threading.Barrier(4)

    def run_client(client_id):
        try:
            barrier.wait()
            own = ForecastClient(port=client.port)
            results[client_id] = own.forecast(batch_for(client_id))
        except Exception as exc:  # pragma: no cover - surfaced by the assert
            errors.append(exc)

    threads = [threading.Thread(target=run_client, args=(c,)) for c in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors
    for client_id in range(4):
        for got, expected in zip(results[client_id], reference[client_id]):
            np.testing.assert_array_equal(got, expected)


def test_scheduler_stats_sum_counters_but_take_the_max_of_gauges(store_root, tiny_series):
    series = tiny_series[0]
    gateway = ForecastGateway(ServerConfig(store=store_root, capacity=3, batch_window_ms=2.0))
    try:
        deepar = gateway.service.load("deepar").forecaster
        oracle = gateway.service.load("oracle").forecaster
        gateway.submit_settled([_named(deepar, series, 20, s) for s in range(3)])
        gateway.submit_settled([_named(deepar, series, 21, 3)])
        gateway.submit_settled([_named(oracle, series, 20, s, model="oracle") for s in range(2)])
        per_model = {name: s.stats for name, s in gateway._schedulers.items()}
        stats = gateway.scheduler_stats()
    finally:
        gateway.close()
    assert [per_model[m]["max_batch_requests"] for m in ("deepar", "oracle")] == [3, 2]
    assert [per_model[m]["hold_us"] for m in ("deepar", "oracle")] == [500, 1000]
    assert stats["max_batch_requests"] == 3
    assert stats["hold_us"] == 1000
    assert stats["requests"] == 6 and stats["batches"] == 3


def test_lone_forecast_stops_paying_the_window_once_the_hold_decays(store_root, tiny_series):
    series = tiny_series[0]
    config = ServerConfig(store=store_root, port=0, preload=["deepar"], batch_window_ms=500.0)
    with ForecastServer(config) as running:
        client = ForecastClient(port=running.port)
        forecaster = running.gateway.service.load("deepar").forecaster
        assert client.health()["scheduler"] == {}  # no forecast yet, no scheduler
        for seed in range(10):  # 500 ms halves to 0 after 7 lone flushes
            client.forecast([_named(forecaster, series, 20, seed)])
            if client.health()["scheduler"]["hold_us"] == 0:
                break
        started = time.perf_counter()
        client.forecast([_named(forecaster, series, 20, 99)])
        elapsed = time.perf_counter() - started
        scheduler = client.health()["scheduler"]
    assert elapsed < 0.25, elapsed
    assert scheduler["hold_us"] == 0
    assert scheduler["flush_window"] == 7
    assert scheduler["flush_immediate"] == 1


def test_per_request_errors_do_not_poison_the_batch(client, server, tiny_series):
    series = tiny_series[0]
    forecaster = server.gateway.service.load("deepar").forecaster
    good = _named(forecaster, series, 20, 5)
    bad = _named(forecaster, series, 20, 6, model="no-such-model")
    outcomes = client.forecast([good, bad], raise_errors=False)
    assert isinstance(outcomes[0], np.ndarray)
    assert isinstance(outcomes[1], ServerError)
    assert outcomes[1].code == "unknown_model"
    with pytest.raises(ServerError):
        client.forecast([good, bad])


def test_forecast_without_rng_is_rejected(client, server, tiny_series):
    series = tiny_series[0]
    forecaster = server.gateway.service.load("deepar").forecaster
    from repro.serving import wire

    document = wire.forecast_batch_to_wire([_named(forecaster, series, 20, 1)])
    document["requests"][0]["request"]["rng"] = None
    with pytest.raises(ServerError) as excinfo:
        client._call("POST", "/v1/forecast", document)
    assert excinfo.value.code == "malformed_request"


# ----------------------------------------------------------------------
# strategy sweeps
# ----------------------------------------------------------------------
def test_sweep_over_the_wire_matches_in_process(client, server, store_root, tiny_series):
    series = tiny_series[0]
    points = client.sweep(
        "oracle", series, origins=[24, 25], horizon=5, n_samples=8, rng=17, mode="carry"
    )
    reference_model = ArtifactStore(store_root).load_model("oracle")
    optimizer = PitStrategyOptimizer(reference_model, n_samples=8)
    reference = optimizer.sweep(
        series, [24, 25], 5, mode="carry", rng=np.random.default_rng(17)
    )
    assert [p.origin for p in points] == [p.origin for p in reference]
    for got, expected in zip(points, reference):
        assert got.current_rank == expected.current_rank
        assert got.outcomes == expected.outcomes  # dataclass equality: exact floats


def test_sweep_on_non_covariate_model_is_unsupported(client, tiny_series):
    with pytest.raises(ServerError) as excinfo:
        client.sweep("naive", tiny_series[0], origins=[24], horizon=5, rng=0)
    assert excinfo.value.code == "unsupported_family"


# ----------------------------------------------------------------------
# live sessions
# ----------------------------------------------------------------------
def test_lap_streamed_session_matches_in_process_stream(client, server, store_root, race):
    session = client.open_session(
        "deepar", horizon=2, n_samples=5, min_history=12, rng=0,
        start=14, stop=40, delay=4, event=race.event, year=race.year,
    )
    streamed = []
    for lap, records in race.iter_laps():
        streamed.extend(session.lap(lap, records))
    streamed.extend(session.close())

    reference_model = ArtifactStore(store_root).load_model("deepar")
    reference = list(
        replay_race(
            reference_model, race, horizon=2, n_samples=5, min_history=12, rng=0, start=14, stop=40
        )
    )

    assert [origin for origin, _ in streamed] == [origin for origin, _ in reference]
    for (origin, got), (_, expected) in zip(streamed, reference):
        assert sorted(got) == sorted(expected)
        for car_id in got:
            np.testing.assert_array_equal(got[car_id], expected[car_id])


def test_session_pins_its_model_and_close_releases_it(client, server, race):
    session = client.open_session("oracle", min_history=12, rng=1)
    listed = client.sessions()
    assert any(s["session"] == session.session_id for s in listed)
    catalog = {m["name"]: m for m in client.models()}
    assert catalog["oracle"]["pinned"] is True
    with pytest.raises(ServerError) as excinfo:
        client.unload("oracle")
    assert excinfo.value.code == "model_pinned" and excinfo.value.status == 409
    session.close(drain=False)
    catalog = {m["name"]: m for m in client.models()}
    assert catalog["oracle"]["pinned"] is False
    assert all(s["session"] != session.session_id for s in client.sessions())


def test_session_requires_an_explicit_rng(client):
    from repro.serving import wire

    with pytest.raises(ValueError, match="rng"):
        client.open_session("deepar")  # the client refuses locally
    # and the server enforces it for hand-rolled wire documents too
    payload = wire.envelope("session-open", model="deepar", rng=None)
    with pytest.raises(ServerError) as excinfo:
        client._call("POST", "/v1/sessions", payload)
    assert excinfo.value.code == "malformed_request"


def test_session_error_paths(client, race):
    with pytest.raises(ServerError) as excinfo:
        ForecastClient(port=client.port).open_session("no-such-model", rng=0)
    assert excinfo.value.code == "unknown_model"

    session = client.open_session("deepar", min_history=12, rng=2)
    try:
        lap, records = next(race.iter_laps())
        first = session.lap(lap, records)
        # a duplicate lap post is an idempotent replay of the original
        # answer (the retry-after-lost-response case), not an error
        replay = session.lap(lap, records)
        assert first == [] and replay == []  # no origin final after one lap
        with pytest.raises(ServerError) as excinfo:
            session.lap(lap - 1, records)  # stale AND never observed
        assert excinfo.value.code == "invalid_request"
    finally:
        session.close(drain=False)

    with pytest.raises(ServerError) as excinfo:
        session.lap(lap + 1, records)  # session is gone
    assert excinfo.value.code == "unknown_session" and excinfo.value.status == 404


# ----------------------------------------------------------------------
# transport-level errors and schema guards
# ----------------------------------------------------------------------
def test_unknown_route_method_and_schema_guards(client):
    with pytest.raises(ServerError) as excinfo:
        client._call("GET", "/v2/models")
    assert excinfo.value.code == "unknown_route" and excinfo.value.status == 404
    with pytest.raises(ServerError) as excinfo:
        client._call("DELETE", "/v1/models")
    assert excinfo.value.code == "method_not_allowed" and excinfo.value.status == 405
    with pytest.raises(ServerError) as excinfo:
        client._call("POST", "/v1/forecast", {"schema_version": 99, "kind": "forecast-batch"})
    assert excinfo.value.code == "unsupported_schema"
    with pytest.raises(ServerError) as excinfo:
        client._call("POST", "/v1/forecast", {"kind": "forecast-batch"})
    assert excinfo.value.code == "malformed_request"


def test_malformed_json_body_is_a_structured_error(server):
    import http.client

    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        connection.request(
            "POST", "/v1/forecast", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        document = json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()
    assert response.status == 400
    assert document["kind"] == "error"
    assert document["error"]["code"] == "malformed_request"


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ValueError, match="unknown server config key"):
        ServerConfig.from_dict({"store": "x", "window_ms": 5})
    with pytest.raises(ValueError, match="batch_window_ms"):
        # the error names the known keys so the typo is easy to fix
        ServerConfig.from_dict({"store": "x", "window": 1})


def test_config_requires_store_and_resolves_relative_paths(tmp_path):
    with pytest.raises(ValueError, match="store"):
        ServerConfig.from_dict({})
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"store": "artifacts", "port": 0}))
    config = ServerConfig.from_file(str(path))
    assert config.store == str(tmp_path / "artifacts")
    assert config.port == 0


def test_config_file_with_bad_json_or_negative_window(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text("{broken")
    with pytest.raises(ValueError, match="not valid JSON"):
        ServerConfig.from_file(str(path))
    with pytest.raises(ValueError, match="batch_window_ms"):
        ServerConfig.from_dict({"store": "x", "batch_window_ms": -1})
    path.write_text('{"store": "x", "batch_window_ms": NaN}')  # valid to json.load
    with pytest.raises(ValueError, match="batch_window_ms must be a finite number"):
        ServerConfig.from_file(str(path))


@pytest.mark.parametrize(
    "field",
    [
        "batch_window_ms",
        "request_deadline_ms",
        "breaker_cooldown_s",
        "drain_grace_s",
        "worker_backoff_s",
        "heartbeat_interval_s",
        "heartbeat_timeout_s",
    ],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_config_rejects_non_finite_durations(field, value):
    # json.load parses NaN / Infinity, and both slip past a ``< 0`` check
    with pytest.raises(ValueError, match=field):
        ServerConfig.from_dict({"store": "x", field: value})
