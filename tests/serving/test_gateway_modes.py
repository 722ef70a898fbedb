"""The gateway answers the same way in-process and from worker replicas.

One scripted sequence — model lifecycle, session open/lap/close, a
strategy sweep, forecasts and unknown models — runs through a
``ForecastGateway`` built in each execution mode; every step must end
with the same status, the same error ``code`` and the same float64
sample bytes.  The rollback tests pin down that a failed session open or
close leaves no registration, pin, worker-side session or journal
behind, in either mode.  The replay tests pin down that the session,
not the gateway's idempotency cache, answers a retried lap.
"""

import json
import os
import shutil
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.artifacts import ArtifactStore
from repro.data import build_race_features
from repro.models import CurRankForecaster, DeepARForecaster, RankNetForecaster
from repro.serving import ForecastClient, wire
from repro.serving.engine import FleetForecaster
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


def _deepar_request(store_root, series):
    """A 3-sample, horizon-2 ``deepar`` request from lap 20 of ``series``."""
    forecaster = ArtifactStore(store_root).load_model("deepar")
    return ForecastClient.request(
        "deepar",
        forecaster._history_target(series, 20),
        forecaster._history_covariates(series, 20),
        forecaster._future_covariates(series, 20, 2),
        n_samples=3,
        rng=0,
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
    request = _deepar_request(fresh_store, tiny_series[0])
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


def test_an_oversized_seed_sequence_pool_is_a_fast_malformed_request(fresh_store, tiny_series):
    """An RNG state whose seed-sequence record asks for a 200,000-word pool
    is refused with 400 ``malformed_request`` before numpy mixes it (which
    would hold the GIL for minutes), in either mode."""
    request = _deepar_request(fresh_store, tiny_series[0])
    body = wire.forecast_batch_to_wire([request])
    rng = wire.rng_to_wire(np.random.default_rng(0))
    rng["state"]["seed_seq"]["pool_size"] = 200_000
    body["requests"][0]["request"]["rng"] = rng
    for mode in MODES:
        gateway = _gateway(fresh_store, mode)
        try:
            started = time.monotonic()
            status, document = gateway.handle("POST", "/v1/forecast", body)
            assert (status, document["error"]["code"]) == (400, "malformed_request"), mode
            assert "pool_size" in document["error"]["message"]
            assert time.monotonic() - started < 5.0, mode
        finally:
            gateway.close()


def test_lru_eviction_order_is_identical_in_both_modes(fresh_store, tiny_series):
    """One residency policy: a fresh load, a load of a resident model and a
    forecast each make the model most recently used, in either mode."""
    request = _deepar_request(fresh_store, tiny_series[0])
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


# ----------------------------------------------------------------------
# one replay authority per request kind: the session replays laps
# ----------------------------------------------------------------------
def _log_engine_stats(monkeypatch, path):
    """Every engine submit appends its engine's counters to ``path``.

    Patched before the gateway exists, so forked worker replicas append
    to the same file: a lap that ran the engine again would add a line.
    """
    submit = FleetForecaster.submit

    def logged(self, requests):
        results = submit(self, requests)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.stats, sort_keys=True) + "\n")
        return results

    monkeypatch.setattr(FleetForecaster, "submit", logged)


def _keyed_lap(sid, lap, records):
    return {**_lap_document(lap, records), "idempotency_key": f"{sid}-lap-{lap}"}


def _laps_observed(gateway, sid):
    _, listing = gateway.handle("GET", "/v1/sessions", None)
    return next(s["laps_observed"] for s in listing["sessions"] if s["session"] == sid)


@pytest.mark.parametrize("mode", list(MODES))
def test_a_keyed_lap_retry_is_replayed_by_the_session(
    fresh_store, race, mode, monkeypatch, tmp_path
):
    """A retried keyed lap reaches the session, which answers it from its
    emission log: same result bytes, ``replayed: true``, no engine work."""
    log = tmp_path / "engine-stats.jsonl"
    _log_engine_stats(monkeypatch, str(log))
    gateway = _gateway(fresh_store, mode)
    try:
        sid = gateway.handle("POST", "/v1/sessions", _open_document(race))[1]["session"]
        laps = list(race.iter_laps())[:20]
        for lap, records in laps:
            status, first = gateway.handle(
                "POST", f"/v1/sessions/{sid}/lap", _keyed_lap(sid, lap, records)
            )
            assert status == 200 and first["replayed"] is False
        assert first["results"], "the last lap must emit forecasts"
        engine_log = log.read_text()
        assert engine_log, "the session's laps ran the engine"
        observed = _laps_observed(gateway, sid)

        lap, records = laps[-1]
        status, retried = gateway.handle(
            "POST", f"/v1/sessions/{sid}/lap", _keyed_lap(sid, lap, records)
        )
        assert status == 200
        assert retried["replayed"] is True
        assert retried["results"] == first["results"]
        assert _samples(retried) == _samples(first)
        assert log.read_text() == engine_log  # warmup_steps/decode_steps unchanged
        assert _laps_observed(gateway, sid) == observed
        assert gateway.idempotency.stats["hits"] == 0

        # once the session is closed nothing replays its laps
        assert gateway.handle("DELETE", f"/v1/sessions/{sid}", {"drain": False})[0] == 200
        status, gone = gateway.handle(
            "POST", f"/v1/sessions/{sid}/lap", _keyed_lap(sid, lap, records)
        )
        assert (status, gone["error"]["code"]) == (404, "unknown_session")
    finally:
        gateway.close()


@pytest.mark.parametrize("mode", list(MODES))
def test_keyed_laps_stay_out_of_the_idempotency_cache(fresh_store, race, tiny_series, mode):
    """Thirty keyed laps leave only the keyed open and forecast cached, and
    a keyed forecast retry is still answered from the cache."""
    request = _deepar_request(fresh_store, tiny_series[0])
    forecast = wire.forecast_batch_to_wire([request], idempotency_key="forecast-1")
    gateway = _gateway(fresh_store, mode)
    try:
        opened = {**_open_document(race), "idempotency_key": "open-1"}
        sid = gateway.handle("POST", "/v1/sessions", opened)[1]["session"]
        for lap, records in list(race.iter_laps())[:30]:
            assert gateway.handle(
                "POST", f"/v1/sessions/{sid}/lap", _keyed_lap(sid, lap, records)
            )[0] == 200
        assert len(gateway.idempotency) == 1

        status, answered = gateway.handle("POST", "/v1/forecast", forecast)
        assert status == 200
        status, retried = gateway.handle("POST", "/v1/forecast", forecast)
        assert status == 200 and retried is answered
        assert gateway.idempotency.stats["hits"] == 1
        assert len(gateway.idempotency) == 2
    finally:
        gateway.close()
