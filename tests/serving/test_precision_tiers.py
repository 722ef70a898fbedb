"""The precision knob through the engine, the wire protocol and the gateway.

Contract under test (wire schema v5):

* ``float64`` stays the byte-identical reference — a request that omits
  ``precision`` (or names it explicitly) returns exactly the bytes the
  pre-v5 gateway returned;
* ``float32`` / ``int8`` are error-bounded against float64 (identical RNG
  streams, small bounded rank deviation, no byte-identity claim) and are
  themselves fully deterministic;
* an HTTP ``precision: "float32"`` request returns results identical to
  the in-process float32 engine — in both in-process and worker modes;
* unknown tiers are rejected with the structured ``unsupported_precision``
  wire error, and low tiers are rejected on the Transformer backbone,
  which only exists as the float64 reference.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.artifacts import ArtifactStore
from repro.data import build_race_features
from repro.models import DeepARForecaster, TransformerForecaster
from repro.serving import (
    ForecastClient,
    ForecastRequest,
    ServerError,
)
from repro.serving import wire
from repro.serving.requests import NamedForecastRequest
from repro.serving.server import ForecastServer, ServerConfig
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
    track = replace(track_for_year("Indy500", 2018), total_laps=60, num_cars=8)
    race = RaceSimulator(track, event="Indy500", year=2019, seed=3).run()
    return build_race_features(race)


@pytest.fixture(scope="module")
def forecaster(tiny_series):
    return DeepARForecaster(seed=5, **DEEP_KWARGS).fit(tiny_series[:4])


def _submit(forecaster, series, precision, seed=7, origin=20, horizon=2, n_samples=24):
    engine = forecaster.fleet_engine(precision=precision)
    # seed -> np.random.default_rng(seed): the wire convention, so the
    # HTTP parity tests below compare like for like
    request = forecaster._fleet_request(
        series, origin, forecaster._future_covariates(series, origin, horizon),
        n_samples, np.random.default_rng(seed),
    )
    return engine.submit([request])[0]


# ----------------------------------------------------------------------
# engine: parity, determinism, validation
# ----------------------------------------------------------------------
def test_low_tiers_are_error_bounded_and_deterministic(forecaster, tiny_series):
    series = tiny_series[0]
    reference = _submit(forecaster, series, "float64")
    f32 = _submit(forecaster, series, "float32")
    i8 = _submit(forecaster, series, "int8")
    # identical RNG streams -> trajectories line up one-to-one; the per-
    # family tolerances here mirror benchmarks/test_bench_precision.py
    assert np.abs(f32 - reference).max() <= 1e-3
    assert np.abs(i8 - reference).max() <= 0.5
    assert not np.array_equal(f32, reference)  # error-bounded, not identical
    # results come back float64 on every tier (the wire/result dtype)
    assert f32.dtype == np.float64 and i8.dtype == np.float64
    # each low tier is itself exactly reproducible
    np.testing.assert_array_equal(f32, _submit(forecaster, series, "float32"))
    np.testing.assert_array_equal(i8, _submit(forecaster, series, "int8"))


def test_fleet_engine_caches_one_replica_per_precision(forecaster):
    e64 = forecaster.fleet_engine(precision="float64")
    e32 = forecaster.fleet_engine(precision="float32")
    assert e64 is forecaster.fleet_engine(precision="float64")
    assert e32 is forecaster.fleet_engine(precision="float32")
    assert e64 is not e32
    assert e64.dtype == np.float64 and e32.dtype == np.float32


def test_low_precision_rejects_transformer_backbone(tiny_series):
    model = TransformerForecaster(
        seed=5, encoder_length=12, decoder_length=2, hidden_dim=8,
        num_layers=1, epochs=1, batch_size=32, max_train_windows=50,
    ).fit(tiny_series[:2])
    with pytest.raises(ValueError, match="Transformer backbone"):
        model.fleet_engine(precision="float32")


def test_named_request_normalizes_precision():
    request = ForecastRequest(
        np.ones(12), np.zeros((12, 9)), np.zeros((2, 9)), n_samples=3, rng=0
    )
    named = NamedForecastRequest(model="m", request=request)
    assert named.precision == "float64"
    assert NamedForecastRequest(model="m", request=request, precision="int8").precision == "int8"
    with pytest.raises(ValueError, match="unknown precision"):
        NamedForecastRequest(model="m", request=request, precision="bf16")


# ----------------------------------------------------------------------
# wire schema v5
# ----------------------------------------------------------------------
def test_wire_round_trips_precision():
    request = ForecastRequest(
        np.ones(12), np.zeros((12, 9)), np.zeros((2, 9)), n_samples=3, rng=5
    )
    named = NamedForecastRequest(model="m", request=request, precision="float32")
    document = wire.named_request_to_wire(named)
    assert document["precision"] == "float32"
    decoded = wire.named_request_from_wire(document)
    assert decoded.precision == "float32"
    # absent field -> the float64 default (a v4 client document still parses)
    del document["precision"]
    assert wire.named_request_from_wire(document).precision == "float64"


def test_wire_rejects_unknown_precision():
    with pytest.raises(wire.WireError) as excinfo:
        wire.precision_from_wire({"precision": "float16"})
    err = excinfo.value
    assert err.code == "unsupported_precision"
    assert err.status == 400
    assert err.detail["precision"] == "float16"
    assert err.detail["supported"] == ["float64", "float32", "int8"]


def test_wire_schema_is_v6():
    assert wire.WIRE_SCHEMA_VERSION == 6


# ----------------------------------------------------------------------
# gateway: HTTP tier == in-process tier, both server modes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=["in-process", "workers"])
def server(request, tmp_path_factory, tiny_series, forecaster):
    root = str(tmp_path_factory.mktemp(f"precision-store-{request.param}"))
    ArtifactStore(root).save_model("deepar", forecaster)
    overrides = {}
    if request.param == "workers":
        overrides = dict(workers=True, worker_backoff_s=0.02)
    config = ServerConfig(
        store=root, port=0, capacity=2, batch_window_ms=2.0, **overrides
    )
    with ForecastServer(config) as running:
        yield running


def _named(forecaster, series, precision, seed=7, origin=20, horizon=2, n_samples=24):
    return ForecastClient.request(
        "deepar",
        forecaster._history_target(series, origin),
        forecaster._history_covariates(series, origin),
        forecaster._future_covariates(series, origin, horizon),
        n_samples=n_samples,
        rng=seed,
        key=(series.race_id, series.car_id),
        origin=origin,
        precision=precision,
    )


def test_http_tiers_match_in_process_engines(server, forecaster, tiny_series):
    client = ForecastClient(port=server.port)
    series = tiny_series[0]
    for precision in ("float64", "float32", "int8"):
        via_http = client.forecast([_named(forecaster, series, precision)])[0]
        in_process = _submit(forecaster, series, precision)
        np.testing.assert_array_equal(via_http, in_process)


def test_http_float64_unchanged_by_the_precision_field(server, forecaster, tiny_series):
    """Omitting ``precision`` and naming float64 return identical bytes."""
    client = ForecastClient(port=server.port)
    series = tiny_series[0]
    named = _named(forecaster, series, "float64")
    explicit = client.forecast([named])[0]
    payload = wire.forecast_batch_to_wire([named])
    del payload["requests"][0]["precision"]  # a pre-v5 client document
    legacy = client._call("POST", "/v1/forecast", payload)
    legacy_samples = list(wire.results_from_wire(legacy))[0]
    np.testing.assert_array_equal(explicit, legacy_samples)


def test_http_unknown_precision_is_a_structured_error(server, forecaster, tiny_series):
    client = ForecastClient(port=server.port)
    payload = wire.forecast_batch_to_wire([_named(forecaster, tiny_series[0], "float64")])
    payload["requests"][0]["precision"] = "float16"
    with pytest.raises(ServerError) as excinfo:
        client._call("POST", "/v1/forecast", payload)
    assert excinfo.value.code == "unsupported_precision"
    assert excinfo.value.status == 400


def test_mixed_precision_batch_settles_in_order(server, forecaster, tiny_series):
    """One batch fanning out to three tiers comes back slot-aligned."""
    client = ForecastClient(port=server.port)
    series = tiny_series[0]
    batch = [
        _named(forecaster, series, "float64", seed=11),
        _named(forecaster, series, "float32", seed=11),
        _named(forecaster, series, "int8", seed=11),
    ]
    results = client.forecast(batch)
    expected = [
        _submit(forecaster, series, p, seed=11)
        for p in ("float64", "float32", "int8")
    ]
    for got, want in zip(results, expected):
        np.testing.assert_array_equal(got, want)
