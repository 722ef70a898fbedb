"""Tests for the fleet-batched inference engine."""

import numpy as np
import pytest

from reference.recurrent import reference_stepper
from repro.models.deep.rankmodel import RankSeqModel
from repro.models.deep.transformer import TransformerSeqModel
from repro.nn.inference import MultiGaussianHeadInference, tile_states
from repro.serving import FleetForecaster, ForecastRequest, spawn_request_rngs

N_COV = 3


def make_model(backbone="lstm", **kwargs):
    defaults = dict(num_covariates=N_COV, hidden_dim=8, num_layers=2,
                    encoder_length=12, decoder_length=2, rng=0, backbone=backbone)
    defaults.update(kwargs)
    return RankSeqModel(**defaults)


def make_histories(n_cars, n_laps=20, seed=100):
    rng = np.random.default_rng(seed)
    targets = [np.clip(10 + np.cumsum(rng.normal(0, 1, n_laps)), 1, 33) for _ in range(n_cars)]
    covs = [rng.normal(size=(n_laps, N_COV)) for _ in range(n_cars)]
    return targets, covs


def make_requests(targets, covs, horizon=3, n_samples=9, seed=7, **kwargs):
    streams = spawn_request_rngs(np.random.default_rng(seed), len(targets))
    future = np.zeros((horizon, N_COV))
    return [
        ForecastRequest(t, c, future, n_samples=n_samples, rng=s, **kwargs)
        for t, c, s in zip(targets, covs, streams)
    ]


# ----------------------------------------------------------------------
# byte-identity of the fleet-batched path vs the per-car loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backbone", ["lstm", "gru"])
def test_fleet_batch_matches_per_car_loop_bitwise(backbone):
    model = make_model(backbone)
    targets, covs = make_histories(6)
    future = np.zeros((3, N_COV))

    loop_streams = spawn_request_rngs(np.random.default_rng(7), 6)
    engine = FleetForecaster(model)
    looped = [
        engine.submit([ForecastRequest(t, c, future, n_samples=9, rng=s)])[0]
        for t, c, s in zip(targets, covs, loop_streams)
    ]
    fleet = FleetForecaster(model).submit(make_requests(targets, covs))
    for a, b in zip(looped, fleet):
        assert a.shape == b.shape == (9, 3)
        np.testing.assert_array_equal(a, b)


def test_fleet_batch_invariant_to_max_batch_rows():
    model = make_model()
    targets, covs = make_histories(5)
    big = FleetForecaster(model, max_batch_rows=8192).submit(make_requests(targets, covs))
    small = FleetForecaster(model, max_batch_rows=10).submit(make_requests(targets, covs))
    for a, b in zip(big, small):
        np.testing.assert_array_equal(a, b)


def test_mixed_lengths_and_horizons_group_correctly():
    model = make_model()
    targets, covs = make_histories(6)
    streams = spawn_request_rngs(np.random.default_rng(3), 6)
    requests = []
    for i, (t, c, s) in enumerate(zip(targets, covs, streams)):
        length = 10 + (i % 3)  # three different history lengths
        horizon = 2 + (i % 2)  # two different horizons
        requests.append(
            ForecastRequest(t[:length], c[:length], np.zeros((horizon, N_COV)),
                            n_samples=5, rng=s)
        )
    results = FleetForecaster(model).submit(requests)
    for request, samples in zip(requests, results):
        assert samples.shape == (5, request.horizon)
        assert np.all(np.isfinite(samples))


def test_submit_empty_and_single():
    model = make_model()
    engine = FleetForecaster(model)
    assert engine.submit([]) == []
    targets, covs = make_histories(1)
    (out,) = engine.submit(make_requests(targets, covs, n_samples=4))
    assert out.shape == (4, 3)


# ----------------------------------------------------------------------
# warm-up sharing and the state cache
# ----------------------------------------------------------------------
def test_requests_with_same_key_share_warmup():
    model = make_model()
    targets, covs = make_histories(1)
    future = np.zeros((2, N_COV))
    streams = spawn_request_rngs(np.random.default_rng(5), 4)
    shared = [
        ForecastRequest(targets[0], covs[0], future, n_samples=6, rng=s,
                        key="car-1", origin=19)
        for s in streams
    ]
    engine = FleetForecaster(model)
    results = engine.submit(shared)
    assert engine.stats["warmup_unique"] == 1
    assert engine.stats["warmup_shared"] == 3

    # identical to four independent warm-ups
    streams = spawn_request_rngs(np.random.default_rng(5), 4)
    independent = [
        ForecastRequest(targets[0], covs[0], future, n_samples=6, rng=s)
        for s in streams
    ]
    for a, b in zip(results, FleetForecaster(model).submit(independent)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("backbone", ["lstm", "gru"])
def test_carry_mode_state_matches_from_scratch_frozen_replay(backbone):
    """Carried state after origin o2 == full replay with the frozen scale."""
    model = make_model(backbone)
    rng = np.random.default_rng(8)
    target = np.clip(10 + np.cumsum(rng.normal(0, 1, 40)), 1, 33)
    cov = rng.normal(size=(40, N_COV))
    future = np.zeros((2, N_COV))
    length = 12
    o1, o2 = 25, 28

    engine = FleetForecaster(model, mode="carry")

    def req(origin, seed):
        sl = slice(origin + 1 - length, origin + 1)
        return ForecastRequest(target[sl], cov[sl], future, n_samples=7,
                               rng=np.random.default_rng(seed), key="car", origin=origin)

    engine.submit([req(o1, 1)])
    carried = engine.submit([req(o2, 2)])[0]
    assert engine.stats["cache_carries"] == 1
    # the carry consumed only the three new laps, not a fresh 11-step warm-up
    assert engine.stats["warmup_steps"] == (length - 1) + (o2 - o1)

    # from-scratch replay: warm up from o1's window start through o2 with the
    # scale frozen at o1's window, then decode with the same RNG stream
    start = o1 + 1 - length
    scale = np.abs(target[start : o1 + 1]).mean() + 1.0
    z = (target[start : o2 + 1] / scale)[:, None]
    c = cov[start : o2 + 1]
    stack = reference_stepper(model.lstm)
    states = stack.zero_state(1)
    for t in range(1, z.shape[0]):
        x = np.concatenate([z[t - 1][None, :], c[t][None, :]], axis=1)
        _, states = stack.step(x, states)
    states = tile_states(states, 7)
    head = MultiGaussianHeadInference(model.head)
    stream = np.random.default_rng(2)
    z_prev = np.tile(z[-1][None, :], (7, 1))
    expected = np.empty((7, 2))
    for h in range(2):
        x = np.concatenate([z_prev, np.tile(future[h][None, :], (7, 1))], axis=1)
        h_t, states = stack.step(x, states)
        mu, sigma = head(h_t)
        z_next = (mu[:, 0] + sigma[:, 0] * stream.standard_normal(7))[:, None]
        expected[:, h] = z_next[:, 0] * scale
        z_prev = z_next
    np.testing.assert_allclose(carried, expected, atol=1e-10)


def test_carry_mode_recomputes_after_large_gap():
    model = make_model()
    rng = np.random.default_rng(9)
    target = np.clip(10 + np.cumsum(rng.normal(0, 1, 60)), 1, 33)
    cov = rng.normal(size=(60, N_COV))
    future = np.zeros((2, N_COV))
    length = 12
    engine = FleetForecaster(model, mode="carry")

    def req(origin):
        sl = slice(origin + 1 - length, origin + 1)
        return ForecastRequest(target[sl], cov[sl], future, n_samples=3,
                               rng=np.random.default_rng(0), key="car", origin=origin)

    engine.submit([req(20)])
    engine.submit([req(50)])  # gap of 30 > window length -> full warm-up
    assert engine.stats["cache_carries"] == 0
    # the second submit re-froze the scale at origin 50's window
    entry = engine.cache.get("car")
    assert entry is not None and entry.origin == 50


@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("backbone", ["lstm", "gru"])
def test_carry_decode_does_not_write_into_cached_state(backbone, precision):
    """The decode steps the request-level states of a reused cache entry;
    it must step copies, never the cached ``packed_state`` itself."""
    model = make_model(backbone)
    targets, covs = make_histories(3)
    future = np.zeros((3, N_COV))
    engine = FleetForecaster(model, mode="carry", precision=precision)

    def submit(seed):
        streams = spawn_request_rngs(np.random.default_rng(seed), 3)
        return engine.submit([
            ForecastRequest(t[-12:], c[-12:], future, n_samples=4, rng=s,
                            key=car, origin=19)
            for car, (t, c, s) in enumerate(zip(targets, covs, streams))
        ])

    submit(1)
    cached = {car: engine.cache.get(car).packed_state.tobytes() for car in range(3)}
    hits = engine.stats["cache_hits"]
    first = submit(2)  # same origin: the delta == 0 reuse path
    assert engine.stats["cache_hits"] == hits + 3
    assert {car: engine.cache.get(car).packed_state.tobytes() for car in range(3)} == cached
    for a, b in zip(first, submit(2)):
        assert a.tobytes() == b.tobytes()


def test_recurrent_backbone_without_fused_head_is_rejected():
    model = make_model()
    del model.head
    with pytest.raises(TypeError, match="head"):
        FleetForecaster(model)


def test_invalid_requests_are_rejected():
    model = make_model()
    engine = FleetForecaster(model)
    good_t = np.ones(10)
    good_c = np.zeros((10, N_COV))
    with pytest.raises(ValueError):  # covariate dim mismatch
        engine.submit([ForecastRequest(good_t, np.zeros((10, N_COV + 1)), np.zeros((2, N_COV)))])
    with pytest.raises(ValueError):  # misaligned history
        ForecastRequest(good_t, np.zeros((9, N_COV)), np.zeros((2, N_COV)))
    with pytest.raises(ValueError):  # bad n_samples
        ForecastRequest(good_t, good_c, np.zeros((2, N_COV)), n_samples=0)
    with pytest.raises(ValueError, match="horizon"):  # empty horizon
        ForecastRequest(good_t, good_c, np.zeros((0, N_COV)))
    with pytest.raises(ValueError):  # bad mode
        FleetForecaster(model, mode="approximate")
    with pytest.raises(TypeError):  # unsupported backbone
        FleetForecaster(object())


# ----------------------------------------------------------------------
# warm-up alignment regression (the seed's dead ``z_prev`` assignment)
# ----------------------------------------------------------------------
def test_warmup_consumes_z_hist_shifted_by_one():
    """Warm-up input at lap t must be [z_{t-1}, x_t]; decode seeds on z_{-1}.

    Regression test for the seed implementation, which tiled ``z_hist[0]``
    into ``z_prev`` before the warm-up loop (a dead assignment immediately
    overwritten after it) — the engine keeps a single, explicit alignment.
    """
    model = make_model()
    targets, covs = make_histories(1, seed=42)
    target, cov = targets[0], covs[0]
    length = target.shape[0]

    engine = FleetForecaster(model, mode="carry")
    engine.submit([ForecastRequest(target, cov, np.zeros((2, N_COV)), n_samples=3,
                                   rng=np.random.default_rng(0), key="car", origin=length - 1)])
    entry = engine.cache.get("car")

    scale = np.abs(target).mean() + 1.0
    z = (target / scale)[:, None]
    stack = reference_stepper(model.lstm)
    states = stack.zero_state(1)
    for t in range(1, length):
        x = np.concatenate([z[t - 1][None, :], cov[t][None, :]], axis=1)
        _, states = stack.step(x, states)
    np.testing.assert_allclose(entry.packed_state, model.lstm.export_state(states), atol=0)
    # the decode loop is seeded with the *last* observed scaled target
    np.testing.assert_allclose(entry.z_last, z[-1], atol=0)


# ----------------------------------------------------------------------
# Transformer backend
# ----------------------------------------------------------------------
def make_transformer():
    return TransformerSeqModel(num_covariates=N_COV, d_model=16, num_heads=4, d_ff=32,
                               num_encoder_layers=1, num_decoder_layers=1,
                               encoder_length=12, decoder_length=2, rng=0)


def test_transformer_fleet_submit_shapes_and_grouping():
    model = make_transformer()
    targets, covs = make_histories(5)
    engine = FleetForecaster(model)
    results = engine.submit(make_requests(targets, covs, horizon=2, n_samples=6))
    assert engine.stats["requests"] == 5
    for samples in results:
        assert samples.shape == (6, 2)
        assert np.all(np.isfinite(samples))


def test_transformer_fleet_consistent_with_single_submits():
    model = make_transformer()
    targets, covs = make_histories(4)
    batched = FleetForecaster(model).submit(make_requests(targets, covs, horizon=2))
    engine = FleetForecaster(model)
    single = [
        engine.submit([request])[0]
        for request in make_requests(targets, covs, horizon=2)
    ]
    for a, b in zip(batched, single):
        # attention/layernorm matmuls are not chunked, so only near-equality
        # (not bitwise identity) is guaranteed for the Transformer backend
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-8)


def test_transformer_rejects_too_short_history():
    model = make_transformer()
    engine = FleetForecaster(model)
    with pytest.raises(ValueError):
        engine.submit([ForecastRequest(np.ones(1), np.zeros((1, N_COV)), np.zeros((2, N_COV)))])


def test_carry_mode_key_without_origin_falls_back_to_full_warmup():
    """Regression: a cached key + a later origin-less request must not crash."""
    model = make_model()
    targets, covs = make_histories(1)
    future = np.zeros((2, N_COV))
    engine = FleetForecaster(model, mode="carry")
    engine.submit([ForecastRequest(targets[0], covs[0], future, n_samples=3,
                                   rng=np.random.default_rng(0), key="car", origin=19)])
    # same key, no origin: uncacheable -> plain full warm-up, no TypeError
    (out,) = engine.submit([ForecastRequest(targets[0], covs[0], future, n_samples=3,
                                            rng=np.random.default_rng(1), key="car")])
    assert out.shape == (3, 2)
    assert engine.stats["cache_carries"] == 0
