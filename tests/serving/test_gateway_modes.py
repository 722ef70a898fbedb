"""The gateway answers the same way in-process and from worker replicas.

One scripted sequence — model lifecycle, session open/lap/close, a
strategy sweep, forecasts and unknown models — runs through a
``ForecastGateway`` built in each execution mode; every step must end
with the same status, the same error ``code`` and the same float64
sample bytes.  The rollback tests pin down that a failed session open or
close leaves no registration, pin, worker-side session or journal
behind, in either mode.
"""

import os
import shutil
from dataclasses import replace

import pytest

from repro.artifacts import ArtifactStore
from repro.data import build_race_features
from repro.models import CurRankForecaster, DeepARForecaster, RankNetForecaster
from repro.serving import ForecastClient, wire
from repro.serving.journal import SessionJournal
from repro.serving.server import ForecastGateway, ServerConfig
from repro.serving.sessions import RaceSession
from repro.serving.supervisor import RaceSessionProxy
from repro.serving.wire import WireError
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

MODES = {"in-process": {}, "workers": {"workers": True}}


@pytest.fixture(scope="module")
def race():
    track = replace(track_for_year("Indy500", 2018), total_laps=45, num_cars=8)
    return RaceSimulator(track, event="Indy500", year=2019, seed=3).run()


@pytest.fixture(scope="module")
def tiny_series(race):
    return build_race_features(race)


@pytest.fixture(scope="module")
def store_root(tmp_path_factory, tiny_series):
    root = str(tmp_path_factory.mktemp("modes-store"))
    store = ArtifactStore(root)
    store.save_model("deepar", DeepARForecaster(seed=5, **DEEP_KWARGS).fit(tiny_series[:4]))
    store.save_model(
        "oracle", RankNetForecaster(variant="oracle", seed=6, **DEEP_KWARGS).fit(tiny_series[:4])
    )
    store.save_model("naive", CurRankForecaster().fit(tiny_series[:4]))
    return root


@pytest.fixture()
def fresh_store(store_root, tmp_path):
    """A private copy of the store, so no test recovers another's journals."""
    return shutil.copytree(store_root, str(tmp_path / "store"))


def _gateway(store_root, mode, **overrides):
    options = dict(
        store=store_root,
        port=0,
        capacity=3,
        batch_window_ms=0.0,
        heartbeat_interval_s=0.1,
        heartbeat_timeout_s=1.0,
        worker_backoff_s=0.02,
        **MODES[mode],
    )
    options.update(overrides)
    return ForecastGateway(ServerConfig(**options))


def _open_document(race, model="deepar", **overrides):
    document = wire.envelope(
        "session-open",
        model=model,
        horizon=2,
        n_samples=5,
        min_history=12,
        rng=wire.rng_to_wire(0),
        delay=4,
        start=14,
        stop=24,
        event=race.event,
        year=race.year,
    )
    document.update(overrides)
    return document


def _lap_document(lap, records):
    return wire.envelope(
        "session-lap", lap=int(lap), records=[wire.lap_record_to_wire(r) for r in records]
    )


def _samples(node):
    """Every encoded array in a response, as (dtype, shape, bytes), in order."""
    found = []
    if isinstance(node, dict):
        if {"dtype", "shape", "data"} <= set(node):
            array = wire.decode_array(node)
            return [(array.dtype.str, array.shape, array.tobytes())]
        for key in sorted(node):
            found.extend(_samples(node[key]))
    elif isinstance(node, list):
        for item in node:
            found.extend(_samples(item))
    return found


def _outcome(status, document):
    code = document.get("error", {}).get("code") if document.get("kind") == "error" else None
    per_result = [
        entry["error"]["code"]
        for entry in document.get("results", [])
        if isinstance(entry, dict) and "error" in entry
    ]
    sweep = [
        (point.get("origin"), point.get("outcomes"))
        for point in document.get("points", [])
    ]
    return {
        "status": status,
        "code": code,
        "per_result_codes": per_result,
        "replayed": document.get("replayed"),
        "samples": _samples(document),
        "sweep": sweep,
    }


def _script(gateway, race, tiny_series):
    """Run the scripted sequence; returns ``[(step, outcome)]``."""
    steps = []

    def call(step, method, path, body=None):
        status, document = gateway.handle(method, path, body)
        steps.append((step, _outcome(status, document)))
        return document

    call("load", "POST", "/v1/models/deepar/load")
    call("load unknown", "POST", "/v1/models/no-such-model/load")
    sid = call("open", "POST", "/v1/sessions", _open_document(race))["session"]
    call("unload pinned", "POST", "/v1/models/deepar/unload")
    call("open bad delay", "POST", "/v1/sessions", _open_document(race, delay=0))
    call("open bad horizon", "POST", "/v1/sessions", _open_document(race, horizon="two"))
    call("open unknown field", "POST", "/v1/sessions", _open_document(race, colour="red"))
    laps = list(race.iter_laps())[:22]
    for lap, records in laps:
        call(f"lap {lap}", "POST", f"/v1/sessions/{sid}/lap", _lap_document(lap, records))
    lap, records = laps[19]
    call("duplicate lap", "POST", f"/v1/sessions/{sid}/lap", _lap_document(lap, records))
    first_lap = laps[0][0]
    call(
        "out-of-order lap", "POST", f"/v1/sessions/{sid}/lap",
        _lap_document(first_lap - 1, laps[0][1]),
    )
    call("close drained", "DELETE", f"/v1/sessions/{sid}", {"drain": True})
    call("lap after close", "POST", f"/v1/sessions/{sid}/lap", _lap_document(lap + 1, records))

    sid = call("reopen", "POST", "/v1/sessions", _open_document(race, rng=wire.rng_to_wire(9)))[
        "session"
    ]
    for lap, records in laps[:20]:
        call(f"second lap {lap}", "POST", f"/v1/sessions/{sid}/lap", _lap_document(lap, records))
    call("close undrained", "DELETE", f"/v1/sessions/{sid}", {"drain": False})
    call("unload released", "POST", "/v1/models/deepar/unload")

    series = tiny_series[0]
    sweep = wire.sweep_request_to_wire(
        "oracle", series, [24, 25], 5, n_samples=8, rng=17, mode="carry"
    )
    call("sweep", "POST", "/v1/strategy/sweep", sweep)
    call(
        "sweep unsupported", "POST", "/v1/strategy/sweep",
        wire.sweep_request_to_wire("naive", series, [24], 5, rng=0),
    )
    call("sweep malformed", "POST", "/v1/strategy/sweep", {**sweep, "origins": ["x"]})

    forecaster = ArtifactStore(gateway.store.root).load_model("deepar")
    requests = [
        ForecastClient.request(
            model,
            forecaster._history_target(series, origin),
            forecaster._history_covariates(series, origin),
            forecaster._future_covariates(series, origin, 2),
            n_samples=7,
            rng=seed,
            key=(series.race_id, series.car_id),
            origin=origin,
        )
        for model, origin, seed in (
            ("deepar", 20, 11), ("no-such-model", 21, 12), ("deepar", 22, 13)
        )
    ]
    call("forecast", "POST", "/v1/forecast", wire.forecast_batch_to_wire(requests))
    return steps


def test_scripted_sequence_is_identical_in_both_modes(fresh_store, race, tiny_series):
    runs = {}
    for mode in MODES:
        gateway = _gateway(fresh_store, mode)
        try:
            runs[mode] = _script(gateway, race, tiny_series)
        finally:
            gateway.close()
    local, workers = runs["in-process"], runs["workers"]
    assert [step for step, _ in local] == [step for step, _ in workers]
    for (step, got), (_, expected) in zip(workers, local):
        assert got == expected, step
    outcomes = dict(local)
    # the script reaches every branch it claims to cover
    assert outcomes["unload pinned"]["code"] == "model_pinned"
    assert outcomes["open bad delay"]["code"] == "invalid_request"
    assert outcomes["open unknown field"]["code"] == "malformed_request"
    assert outcomes["duplicate lap"]["replayed"] is True
    assert outcomes["out-of-order lap"]["code"] == "invalid_request"
    assert outcomes["lap after close"]["code"] == "unknown_session"
    assert outcomes["close drained"]["samples"]
    assert outcomes["close undrained"]["samples"] == []
    assert outcomes["unload released"]["status"] == 200
    assert outcomes["load unknown"]["code"] == "unknown_model"
    assert outcomes["sweep"]["status"] == 200 and outcomes["sweep"]["sweep"]
    assert outcomes["sweep unsupported"]["code"] == "unsupported_family"
    assert (outcomes["sweep malformed"]["status"], outcomes["sweep malformed"]["code"]) == (
        400, "malformed_request"
    )
    assert outcomes["forecast"]["per_result_codes"] == ["unknown_model"]
    assert len(outcomes["forecast"]["samples"]) == 2
    assert all(dtype == "<f8" for dtype, _, _ in outcomes["forecast"]["samples"])


def test_unknown_models_fail_the_same_in_both_modes(fresh_store, race, tiny_series):
    """An unknown model is ``unknown_model`` on every route, never a
    worker replica that dies at start-up."""
    sweep = wire.sweep_request_to_wire("no-such-model", tiny_series[0], [24], 5, rng=0)
    for mode in MODES:
        gateway = _gateway(fresh_store, mode)
        try:
            for method, path, body in (
                ("POST", "/v1/models/no-such-model/load", None),
                ("POST", "/v1/strategy/sweep", sweep),
                ("POST", "/v1/sessions", _open_document(race, "no-such-model")),
            ):
                status, document = gateway.handle(method, path, body)
                assert (status, document["error"]["code"]) == (404, "unknown_model"), (mode, path)
            assert len(gateway.sessions) == 0
            assert gateway.handle("GET", "/v1/models", None)[1]["loaded"] == []
        finally:
            gateway.close()


def test_empty_horizon_is_a_malformed_request_in_both_modes(fresh_store, tiny_series):
    """A request whose future covariates have no row asks for a zero-lap
    forecast: the wire decode refuses it (400 ``malformed_request``) in
    either mode, before any engine sees it."""
    series = tiny_series[0]
    forecaster = ArtifactStore(fresh_store).load_model("deepar")
    request = ForecastClient.request(
        "deepar",
        forecaster._history_target(series, 20),
        forecaster._history_covariates(series, 20),
        forecaster._future_covariates(series, 20, 2),
        n_samples=3,
        rng=0,
    )
    body = wire.forecast_batch_to_wire([request])
    future = wire.decode_array(body["requests"][0]["request"]["future_covariates"])
    body["requests"][0]["request"]["future_covariates"] = wire.encode_array(future[:0])
    for mode in MODES:
        gateway = _gateway(fresh_store, mode)
        try:
            status, document = gateway.handle("POST", "/v1/forecast", body)
            assert (status, document["error"]["code"]) == (400, "malformed_request"), mode
            assert "horizon" in document["error"]["message"]
        finally:
            gateway.close()


def test_lru_eviction_order_is_identical_in_both_modes(fresh_store, tiny_series):
    """One residency policy: a fresh load, a load of a resident model and a
    forecast each make the model most recently used, in either mode."""
    series = tiny_series[0]
    forecaster = ArtifactStore(fresh_store).load_model("deepar")
    request = ForecastClient.request(
        "deepar",
        forecaster._history_target(series, 20),
        forecaster._history_covariates(series, 20),
        forecaster._future_covariates(series, 20, 2),
        n_samples=3,
        rng=0,
    )
    forecast = ("POST", "/v1/forecast", wire.forecast_batch_to_wire([request]))
    stages = [
        (["deepar", forecast, "naive", "oracle"], ["naive", "oracle"]),
        (["naive", "deepar"], ["deepar", "naive"]),
        (["oracle", forecast, "naive"], ["deepar", "naive"]),
    ]
    catalogs = {}
    for mode in MODES:
        gateway = _gateway(fresh_store, mode, capacity=2)
        try:
            for stage, (steps, expected) in enumerate(stages):
                for step in steps:
                    if isinstance(step, str):
                        step = ("POST", f"/v1/models/{step}/load", None)
                    assert gateway.handle(*step)[0] == 200, (mode, stage)
                catalogs[mode] = gateway.handle("GET", "/v1/models", None)[1]
                assert sorted(catalogs[mode]["loaded"]) == expected, (mode, stage)
        finally:
            gateway.close()
    assert catalogs["workers"]["loaded"] == catalogs["in-process"]["loaded"]  # LRU order
    assert set(catalogs["workers"]["stats"]) == set(catalogs["in-process"]["stats"])


def _pinned(gateway):
    _, catalog = gateway.handle("GET", "/v1/models", None)
    return sorted(entry["name"] for entry in catalog["models"] if entry["pinned"])


@pytest.mark.parametrize("mode", list(MODES))
def test_failed_drain_on_close_removes_the_journal(fresh_store, race, mode, monkeypatch):
    """A DELETE whose drain raises still deletes the session's journal, so
    the next boot does not resurrect a session the client closed."""

    def broken_finish(self, *args, **kwargs):
        raise RuntimeError("drain failed")

    # patched before the gateway exists, so forked worker replicas inherit it
    monkeypatch.setattr(RaceSession, "finish", broken_finish)
    gateway = _gateway(fresh_store, mode)
    try:
        status, opened = gateway.handle("POST", "/v1/sessions", _open_document(race))
        assert status == 200
        sid = opened["session"]
        status, _ = gateway.handle("DELETE", f"/v1/sessions/{sid}", {"drain": True})
        assert status == 500
        assert len(gateway.sessions) == 0
        assert _pinned(gateway) == []
        assert not any(name.startswith(sid) for name in os.listdir(gateway.journal_dir))
    finally:
        gateway.close()
    monkeypatch.undo()
    rebooted = _gateway(fresh_store, mode)
    try:
        assert rebooted.sessions_recovered == 0
        assert rebooted.recovery_errors == []
    finally:
        rebooted.close()


@pytest.mark.parametrize("mode", list(MODES))
def test_failed_journal_open_rolls_the_session_back(fresh_store, race, mode, monkeypatch):
    """An open whose journal cannot be written answers 500 and leaves no
    registered session, pin or worker-side session behind."""

    def broken_record_open(self, document):
        raise OSError("journal disk is full")

    monkeypatch.setattr(SessionJournal, "record_open", broken_record_open)
    gateway = _gateway(fresh_store, mode)
    try:
        status, document = gateway.handle(
            "POST", "/v1/sessions", _open_document(race)
        )
        assert status == 500 and document["kind"] == "error"
        assert len(gateway.sessions) == 0
        assert _pinned(gateway) == []
        journals = gateway.journal_dir
        assert not os.path.isdir(journals) or os.listdir(journals) == []
        if mode == "workers":
            # the replica dropped its half of the session too
            with pytest.raises(WireError) as excinfo:
                RaceSessionProxy(gateway.executor, "deepar", "sess-000001", {}).finish()
            assert excinfo.value.code == "unknown_session"
        monkeypatch.undo()
        # the gateway is still fully usable, and the next open succeeds
        status, opened = gateway.handle("POST", "/v1/sessions", _open_document(race))
        assert status == 200
        status, _ = gateway.handle("DELETE", f"/v1/sessions/{opened['session']}", {"drain": True})
        assert status == 200
        assert _pinned(gateway) == []
    finally:
        gateway.close()
