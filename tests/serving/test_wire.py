"""Wire-protocol round trips, edge cases, and schema guards."""

import numpy as np
import pytest

from repro.serving import wire
from repro.serving.requests import ForecastRequest, NamedForecastRequest
from repro.serving.wire import WIRE_SCHEMA_VERSION, WireError
from repro.strategy.optimizer import StrategyOutcome, StrategySweepPoint


def _request(
    length=12,
    target_dim=1,
    horizon=3,
    n_cov=4,
    n_samples=9,
    rng=None,
    key=("Indy500-2018", 7),
    origin=30,
    one_dimensional=False,
):
    gen = np.random.default_rng(3)
    target = gen.normal(size=length if one_dimensional else (length, target_dim))
    return ForecastRequest(
        history_target=target,
        history_covariates=gen.normal(size=(length, n_cov)),
        future_covariates=gen.normal(size=(horizon, n_cov)),
        n_samples=n_samples,
        rng=rng,
        key=key,
        origin=origin,
    )


# ----------------------------------------------------------------------
# arrays
# ----------------------------------------------------------------------
def test_array_round_trip_is_bitwise():
    array = np.random.default_rng(0).normal(size=(5, 3))
    decoded = wire.decode_array(wire.encode_array(array))
    assert decoded.dtype == array.dtype and decoded.shape == array.shape
    np.testing.assert_array_equal(decoded, array)


def test_array_round_trip_int_and_empty():
    ints = np.arange(7, dtype=np.int64)
    np.testing.assert_array_equal(wire.decode_array(wire.encode_array(ints)), ints)
    empty = np.empty((0, 4), dtype=np.float64)
    decoded = wire.decode_array(wire.encode_array(empty))
    assert decoded.shape == (0, 4) and decoded.dtype == np.float64


def test_non_contiguous_arrays_encode_like_their_copies():
    base = np.random.default_rng(1).normal(size=(6, 6))
    views = [base[::2], base.T, base[:, 1:4]]
    for view in views:
        assert not view.flags["C_CONTIGUOUS"]
        assert wire.encode_array(view) == wire.encode_array(np.ascontiguousarray(view))
        np.testing.assert_array_equal(wire.decode_array(wire.encode_array(view)), view)


def test_malformed_array_specs_raise_structured_errors():
    good = wire.encode_array(np.zeros(3))
    with pytest.raises(WireError, match="array spec"):
        wire.decode_array("not a dict")
    with pytest.raises(WireError):
        wire.decode_array({**good, "data": "!!! not base64 !!!"})
    with pytest.raises(WireError, match="bytes"):
        wire.decode_array({**good, "shape": [4]})  # byte count mismatch
    with pytest.raises(WireError, match="object dtype"):
        wire.decode_array({**good, "dtype": "|O"})
    with pytest.raises(WireError):
        wire.decode_array({"dtype": "float64"})  # missing fields


# ----------------------------------------------------------------------
# RNG streams
# ----------------------------------------------------------------------
def test_rng_seed_round_trip_reproduces_draws():
    spec = wire.rng_to_wire(42)
    assert spec == {"seed": 42}
    a = wire.rng_from_wire(spec).standard_normal(8)
    b = np.random.default_rng(42).standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_rng_state_round_trip_continues_stream_bitwise():
    gen = np.random.default_rng(7)
    gen.standard_normal(13)  # advance: the wire form must capture mid-stream state
    spec = wire.rng_to_wire(gen)
    clone = wire.rng_from_wire(spec)
    np.testing.assert_array_equal(clone.standard_normal(16), gen.standard_normal(16))


def test_rng_required_and_malformed():
    assert wire.rng_from_wire(None) is None
    with pytest.raises(WireError, match="reproducible"):
        wire.rng_from_wire(None, required=True)
    with pytest.raises(WireError):
        wire.rng_from_wire({"seed": "nope"})
    with pytest.raises(WireError):
        wire.rng_from_wire({"neither": 1})
    with pytest.raises(WireError):
        wire.rng_from_wire({"state": {"bit_generator": "NoSuchBitGen"}})


@pytest.mark.parametrize(
    "field, value",
    [("pool_size", 200_000), ("pool_size", 2), ("n_children_spawned", -1), ("spawn_key", [-1])],
)
def test_rng_state_with_an_out_of_range_seed_sequence_is_malformed(field, value):
    """A seed-sequence record is checked before numpy builds it: a huge
    pool would mix for minutes holding the GIL, a negative child count
    would only fail at the first spawn."""
    spec = wire.rng_to_wire(np.random.default_rng(7))
    spec["state"]["seed_seq"][field] = value
    with pytest.raises(WireError, match="seed_seq") as excinfo:
        wire.rng_from_wire(spec)
    assert excinfo.value.code == "malformed_request"


# ----------------------------------------------------------------------
# forecast requests
# ----------------------------------------------------------------------
def test_request_round_trip_preserves_arrays_key_origin_and_draws():
    request = _request(rng=np.random.default_rng(5))
    clone = wire.request_from_wire(wire.request_to_wire(request))
    np.testing.assert_array_equal(clone.target, request.target)
    np.testing.assert_array_equal(clone.history_covariates, request.history_covariates)
    np.testing.assert_array_equal(clone.future_covariates, request.future_covariates)
    assert clone.n_samples == request.n_samples
    assert clone.key == request.key and isinstance(clone.key, tuple)
    assert clone.origin == request.origin
    assert clone.warmup_key() == request.warmup_key()
    np.testing.assert_array_equal(
        clone.rng.standard_normal(9), request.rng.standard_normal(9)
    )


def test_one_dimensional_history_target_round_trips_to_column():
    request = _request(one_dimensional=True, rng=1)
    assert request.target.shape == (12, 1)
    clone = wire.request_from_wire(wire.request_to_wire(request))
    np.testing.assert_array_equal(clone.target, request.target)


def test_empty_future_covariates_refused():
    """A zero-lap horizon is no forecast: refused at construction, and on
    the wire as ``malformed_request``, not an engine ``IndexError``."""
    with pytest.raises(ValueError, match="horizon"):
        _request(horizon=0, rng=2)
    document = wire.request_to_wire(_request(rng=2))
    future = wire.decode_array(document["future_covariates"])
    document["future_covariates"] = wire.encode_array(future[:0])
    with pytest.raises(WireError, match="horizon") as excinfo:
        wire.request_from_wire(document)
    assert excinfo.value.code == "malformed_request"


def test_request_without_rng_refused_when_required():
    document = wire.request_to_wire(_request(rng=None))
    assert document["rng"] is None
    assert wire.request_from_wire(document).rng is None
    with pytest.raises(WireError, match="reproducible"):
        wire.request_from_wire(document, require_rng=True)


def test_request_missing_fields_and_bad_shapes():
    document = wire.request_to_wire(_request(rng=0))
    for field in ("history_target", "history_covariates", "future_covariates", "n_samples"):
        broken = {k: v for k, v in document.items() if k != field}
        with pytest.raises(WireError, match="missing"):
            wire.request_from_wire(broken)
    bad = dict(document)
    bad["history_covariates"] = wire.encode_array(np.zeros(3))  # 1-D: invalid
    with pytest.raises(WireError, match="invalid forecast request"):
        wire.request_from_wire(bad)
    # an origin is a lap index: never rounded, cast from a bool or a string
    for origin in (2.5, True, "3", -1):
        with pytest.raises(WireError, match="origin") as excinfo:
            wire.request_from_wire(dict(document, origin=origin))
        assert excinfo.value.code == "malformed_request"


def test_named_batch_round_trip_and_guards():
    named = [
        NamedForecastRequest("model-a", _request(rng=0)),
        NamedForecastRequest("model-b", _request(rng=1)),
    ]
    document = wire.forecast_batch_to_wire(named)
    clones = wire.forecast_batch_from_wire(document)
    assert [c.model for c in clones] == ["model-a", "model-b"]
    with pytest.raises(WireError, match="non-empty string"):
        wire.named_request_from_wire({"model": "", "request": {}})
    with pytest.raises(WireError, match="array"):
        wire.forecast_batch_from_wire(wire.envelope("forecast-batch", requests="nope"))


# ----------------------------------------------------------------------
# results (including per-request error slots)
# ----------------------------------------------------------------------
def test_results_round_trip_mixed_success_and_error():
    samples = np.random.default_rng(2).normal(size=(5, 2))
    failure = WireError("unknown_model", "no such model", status=404)
    document = wire.results_to_wire([samples, failure])
    decoded = wire.results_from_wire(document)
    np.testing.assert_array_equal(decoded[0], samples)
    assert isinstance(decoded[1], WireError)
    assert decoded[1].code == "unknown_model" and decoded[1].status == 404


# ----------------------------------------------------------------------
# schema guards and error envelopes
# ----------------------------------------------------------------------
def test_unknown_schema_version_is_refused():
    document = wire.forecast_batch_to_wire([])
    document["schema_version"] = WIRE_SCHEMA_VERSION + 1
    with pytest.raises(WireError) as excinfo:
        wire.forecast_batch_from_wire(document)
    assert excinfo.value.code == "unsupported_schema"


def test_missing_or_bad_schema_version_is_malformed():
    for document in ({}, {"schema_version": "1"}, {"schema_version": True}, [1, 2]):
        with pytest.raises(WireError) as excinfo:
            wire.check_envelope(document)
        assert excinfo.value.code == "malformed_request"


def test_kind_mismatch_is_malformed():
    with pytest.raises(WireError, match="forecast-batch"):
        wire.check_envelope(wire.envelope("forecast-results"), kind="forecast-batch")


def test_error_envelope_round_trip():
    status, document = wire.error_to_wire(
        WireError("model_pinned", "busy", status=409, detail={"model": "a"})
    )
    assert status == 409 and document["kind"] == "error"
    with pytest.raises(WireError) as excinfo:
        wire.raise_for_error(document)
    assert excinfo.value.code == "model_pinned"
    assert excinfo.value.status == 409
    assert excinfo.value.detail == {"model": "a"}
    # non-error documents pass through untouched
    assert wire.raise_for_error({"kind": "health"}) == {"kind": "health"}


def test_internal_errors_become_500_envelopes():
    status, document = wire.error_to_wire(RuntimeError("boom"))
    assert status == 500
    assert document["error"]["code"] == "internal_error"


# ----------------------------------------------------------------------
# sweep documents
# ----------------------------------------------------------------------
def test_sweep_points_round_trip_is_exact():
    points = [
        StrategySweepPoint(
            origin=31,
            current_rank=4.0,
            outcomes=[
                StrategyOutcome(
                    pit_in_laps=2,
                    expected_final_rank=3.337000000000001,
                    median_final_rank=3.0,
                    p_gain=0.13,
                    p_lose=1.0 / 3.0,
                    rank_samples_std=0.7071067811865476,
                )
            ],
        )
    ]
    clones = wire.sweep_points_from_wire(wire.sweep_points_to_wire(points))
    assert clones[0].origin == 31 and clones[0].current_rank == 4.0
    assert clones[0].outcomes == points[0].outcomes  # dataclass float equality: exact


def test_sweep_request_round_trip_and_guards():
    from repro.data.features import CarFeatureSeries

    gen = np.random.default_rng(0)
    series = CarFeatureSeries(
        race_id="Indy500-2018",
        event="Indy500",
        year=2018,
        car_id=9,
        laps=np.arange(1, 41, dtype=np.int64),
        rank=gen.integers(1, 33, size=40).astype(np.float64),
        lap_time=gen.normal(90, 3, size=40),
        time_behind_leader=gen.normal(10, 3, size=40),
        covariates=gen.normal(size=(40, 9)),
    )
    document = wire.sweep_request_to_wire(
        "oracle", series, origins=[30, 31], horizon=5, n_samples=8, rng=17
    )
    parsed = wire.sweep_request_from_wire(document)
    assert parsed["model"] == "oracle" and parsed["origins"] == [30, 31]
    np.testing.assert_array_equal(parsed["series"].covariates, series.covariates)
    np.testing.assert_array_equal(
        parsed["rng"].standard_normal(4), np.random.default_rng(17).standard_normal(4)
    )
    document = wire.sweep_request_to_wire("oracle", series, [30], 5, rng=0)
    document["origins"] = [30, "x"]
    with pytest.raises(WireError, match="integers"):
        wire.sweep_request_from_wire(document)
