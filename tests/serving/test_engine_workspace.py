"""The fleet engine's workspace: reuse across submits and its hazards.

A fused engine keeps one workspace (the driver's per-layer contexts with
their decode and warm-up buffers, plus the sampled-target and step-input
rows) for its whole life.  These tests pin the contract that makes the
reuse safe: returned samples and cached warm-up states are fresh arrays,
weights are re-read on every submit, one submit runs at a time, and deep
forecasters drop engines whose weights went stale.
"""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.data import build_race_features
from repro.models import DeepARForecaster
from repro.models.deep.rankmodel import RankSeqModel
from repro.profiling.decode import steady_state_faults
from repro.serving import FleetForecaster, ForecastRequest, spawn_request_rngs
from repro.simulation import RaceSimulator, track_for_year

N_COV = 3
PRECISIONS = ("float64", "float32", "int8")


def make_model(backbone):
    return RankSeqModel(num_covariates=N_COV, hidden_dim=8, num_layers=2,
                        encoder_length=12, decoder_length=3, rng=0, backbone=backbone)


def make_requests(n_cars, n_samples, seed, horizon=3, origin=None):
    """``n_cars`` requests; keyed by car (cacheable in carry mode) when an
    ``origin`` is given."""
    rng = np.random.default_rng(100)
    streams = spawn_request_rngs(np.random.default_rng(seed), n_cars)
    future = np.zeros((horizon, N_COV))
    return [
        ForecastRequest(np.clip(10 + np.cumsum(rng.normal(0, 1, 12)), 1, 33),
                        rng.normal(size=(12, N_COV)), future,
                        n_samples=n_samples, rng=stream,
                        key=None if origin is None else car, origin=origin)
        for car, stream in enumerate(streams)
    ]


def workspace_buffers(engine):
    backend = engine._backend
    ctxs = backend.driver.ctxs
    owners = [ctx._rows for ctx in ctxs] + [ctx._seq_rows for ctx in ctxs] + [backend.io_rows]
    return [buf for owner in owners for buf in owner._buffers]


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("backbone", ["lstm", "gru"])
@pytest.mark.parametrize("mode", ["exact", "carry"])
def test_held_samples_survive_larger_and_smaller_submits(mode, backbone, precision):
    engine = FleetForecaster(make_model(backbone), mode=mode, precision=precision)
    # the first round grows the workspace past submit A's rows; the second
    # runs every submit on the already-grown buffers.  The origin advances
    # per submit, so carry mode runs both full and carried warm-ups.
    for origin in (11, 14):
        held = engine.submit(make_requests(3, n_samples=5, seed=1, origin=origin))
        held_bytes = [a.tobytes() for a in held]
        cached = list(engine.cache._entries.values())
        cached_bytes = [entry.packed_state.tobytes() for entry in cached]
        assert bool(cached) == (mode == "carry")
        engine.submit(make_requests(6, n_samples=9, seed=2, origin=origin + 1))
        engine.submit(make_requests(2, n_samples=4, seed=3, origin=origin + 2))
        buffers = workspace_buffers(engine)
        assert buffers and buffers[0].shape[0] == 6 * 9  # high-water row count
        for samples, before in zip(held, held_bytes):
            assert samples.tobytes() == before
            assert not any(np.shares_memory(samples, buf) for buf in buffers)
        for entry, before in zip(cached, cached_bytes):
            assert entry.packed_state.tobytes() == before
        for entry in cached + list(engine.cache._entries.values()):
            assert not any(np.shares_memory(entry.packed_state, buf) for buf in buffers)


@pytest.mark.parametrize("backbone", ["lstm", "gru"])
def test_float64_engine_follows_in_place_weight_updates(backbone):
    model = make_model(backbone)
    engine = FleetForecaster(model)
    engine.submit(make_requests(3, n_samples=5, seed=1))  # fills the workspace
    for param in model.parameters():
        param.data *= 1.05  # in place, as an optimiser step does
    reused = engine.submit(make_requests(3, n_samples=5, seed=4))
    fresh = FleetForecaster(model).submit(make_requests(3, n_samples=5, seed=4))
    for a, b in zip(reused, fresh):
        assert a.tobytes() == b.tobytes()


def test_overlapping_submit_raises_instead_of_sharing_the_workspace():
    engine = FleetForecaster(make_model("lstm"))
    inside = threading.Barrier(2, timeout=10)
    release = threading.Event()
    run_group = engine._backend.run_group

    def held_run_group(requests):
        inside.wait()  # the first submit is now holding the engine
        release.wait(timeout=10)
        return run_group(requests)

    engine._backend.run_group = held_run_group
    results = []
    first = threading.Thread(
        target=lambda: results.append(engine.submit(make_requests(2, 4, seed=1)))
    )
    first.start()
    try:
        inside.wait()
        with pytest.raises(RuntimeError, match="one submit at a time"):
            engine.submit(make_requests(2, 4, seed=2))
    finally:
        release.set()
        first.join(timeout=10)
    assert not first.is_alive()
    assert len(results) == 1 and len(results[0]) == 2
    engine._backend.run_group = run_group
    assert len(engine.submit(make_requests(2, 4, seed=3))) == 2  # lock released


def test_concurrent_submits_either_run_whole_or_are_refused():
    engine = FleetForecaster(make_model("lstm"))
    expected = [a.tobytes() for a in engine.submit(make_requests(4, 6, seed=1))]
    outcomes = []

    def hammer():
        for _ in range(20):
            try:
                got = engine.submit(make_requests(4, 6, seed=1))
            except RuntimeError:
                outcomes.append("refused")
            else:
                outcomes.append([a.tobytes() for a in got] == expected)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(outcomes) == 80 and False not in outcomes


def test_fine_tune_drops_engines_so_every_tier_serves_the_new_weights():
    track = replace(track_for_year("Indy500", 2018), total_laps=60, num_cars=8)
    series = build_race_features(RaceSimulator(track, event="Indy500", year=2019, seed=3).run())
    forecaster = DeepARForecaster(
        seed=5, encoder_length=12, decoder_length=2, hidden_dim=8, num_layers=1,
        epochs=1, batch_size=32, max_train_windows=200,
    ).fit(series[:4])

    def request(seed):
        return forecaster._fleet_request(
            series[0], 20, forecaster._future_covariates(series[0], 20, 2), 16,
            np.random.default_rng(seed), key=("car", 0),
        )

    for precision in PRECISIONS:  # build (and convert) every tier's replica
        forecaster.fleet_engine(precision=precision).submit([request(1)])
    forecaster.fine_tune(series[4:6], epochs=1, lr=1e-2)
    for precision in PRECISIONS:
        engine = forecaster.fleet_engine(precision=precision)
        fresh = FleetForecaster(forecaster.model, mode=engine.mode, precision=precision)
        got = engine.submit([request(2)])[0]
        assert got.tobytes() == fresh.submit([request(2)])[0].tobytes(), precision


@pytest.mark.parametrize("backbone", ["lstm", "gru"])
def test_exact_warmup_buffers_stay_within_max_batch_rows(backbone):
    # the strategy-sweep shape: 462 requests x 5 samples, encoder 60, 2x40;
    # one warm-up row per request over 59 steps is 27,258 sequence rows
    n_requests, n_cov, encoder, horizon = 462, 9, 60, 10
    model = RankSeqModel(num_covariates=n_cov, hidden_dim=40, num_layers=2,
                         encoder_length=encoder, decoder_length=horizon, rng=0,
                         backbone=backbone)
    rng = np.random.default_rng(5)
    histories = [(np.clip(10 + np.cumsum(rng.normal(0, 0.8, encoder)), 1, 33),
                  rng.normal(size=(encoder, n_cov))) for _ in range(n_requests)]
    future = np.zeros((horizon, n_cov))

    def run(engine):
        streams = spawn_request_rngs(np.random.default_rng(6), n_requests)
        samples = engine.submit([ForecastRequest(t, c, future, n_samples=5, rng=s)
                                 for (t, c), s in zip(histories, streams)])
        seq_rows = [ctx._seq_rows for ctx in engine._backend.driver.ctxs]
        return samples, seq_rows

    chunked = FleetForecaster(model)
    samples, seq_rows = run(chunked)
    held = sum(buf.nbytes for owner in seq_rows for buf in owner._buffers)
    bound = sum(chunked.max_batch_rows * sum(owner.widths) * 8 for owner in seq_rows)
    assert held <= bound
    whole, whole_rows = run(FleetForecaster(model, max_batch_rows=10**6))
    assert whole_rows[0]._buffers[0].shape[0] == n_requests * (encoder - 1)
    for a, b in zip(samples, whole):
        assert a.tobytes() == b.tobytes()


def test_live_race_submits_stop_faulting_once_the_workspace_is_warm():
    pytest.importorskip("resource")
    # the live-race shape: 33 cars x 50 samples, 2x40 LSTM, carry, horizon 2;
    # ~4,500 faults per submit when every submit allocated fresh scratch
    assert steady_state_faults() <= 200


def test_exact_warmup_submits_stop_faulting_once_the_workspace_is_warm():
    pytest.importorskip("resource")
    # the forecast-gateway shape: as above, but every submit re-runs the
    # 29-step warm-up; ~670 faults per submit when the warm-up allocated
    # its (B, T, .) projection and output tensors per call
    assert steady_state_faults(mode="exact") <= 200
