"""Byte-identity of the fused decode engine against the stepwise reference.

The fused path (block RNG + ``step_decode`` kernels + hoisted covariates)
must replay the retained per-lap loop bit for bit: same ``stable_matmul``
products, bitwise-equal dense sigmoid, and identical RNG stream consumption
— including when several requests share one ``Generator``.
"""

import numpy as np
import pytest

from repro.models.deep.rankmodel import RankSeqModel
from repro.nn.activations import sigmoid, sigmoid_dense
from repro.nn.inference import recurrent_inference
from repro.nn.precision import compute_dtype, convert_module
from repro.serving import FleetForecaster, ForecastRequest, spawn_request_rngs

N_COV = 3


def make_model(backbone="lstm", **kwargs):
    defaults = dict(num_covariates=N_COV, hidden_dim=8, num_layers=2,
                    encoder_length=12, decoder_length=3, rng=0, backbone=backbone)
    defaults.update(kwargs)
    return RankSeqModel(**defaults)


def make_histories(n_cars, n_laps=20, seed=100):
    rng = np.random.default_rng(seed)
    targets = [np.clip(10 + np.cumsum(rng.normal(0, 1, n_laps)), 1, 33) for _ in range(n_cars)]
    covs = [rng.normal(size=(n_laps, N_COV)) for _ in range(n_cars)]
    return targets, covs


def submit(model, targets, covs, decode, mode="exact", horizon=3, n_samples=7,
           seed=9, origins=(19,), shared_rng=False):
    engine = FleetForecaster(model, mode=mode, decode=decode)
    future = np.zeros((horizon, N_COV))
    results = []
    n = len(targets)
    if shared_rng:
        streams = [np.random.default_rng(seed)] * (n * len(origins))
    else:
        streams = spawn_request_rngs(np.random.default_rng(seed), n * len(origins))
    for j, origin in enumerate(origins):
        results.extend(
            engine.submit(
                [
                    ForecastRequest(
                        targets[car][: origin + 1][-12:], covs[car][: origin + 1][-12:],
                        future, n_samples=n_samples,
                        rng=streams[j * n + car], key=car, origin=origin,
                    )
                    for car in range(n)
                ]
            )
        )
    return results


# ----------------------------------------------------------------------
# engine-level parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backbone", ["lstm", "gru"])
@pytest.mark.parametrize("mode", ["exact", "carry"])
def test_fused_matches_stepwise_bitwise(backbone, mode):
    model = make_model(backbone)
    targets, covs = make_histories(5)
    origins = (15, 16, 17)  # carry mode advances cached states between these
    stepwise = submit(model, targets, covs, "stepwise", mode=mode, origins=origins)
    fused = submit(model, targets, covs, "fused", mode=mode, origins=origins)
    assert len(stepwise) == len(fused) == 15
    for a, b in zip(stepwise, fused):
        assert a.shape == b.shape == (7, 3)
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("backbone", ["lstm", "gru"])
def test_fused_matches_stepwise_with_shared_rng_stream(backbone):
    """Several requests drawing from one Generator interleave identically."""
    model = make_model(backbone)
    targets, covs = make_histories(4)
    stepwise = submit(model, targets, covs, "stepwise", shared_rng=True)
    fused = submit(model, targets, covs, "fused", shared_rng=True)
    for a, b in zip(stepwise, fused):
        np.testing.assert_array_equal(a, b)


def test_fused_matches_stepwise_mixed_sample_counts():
    """Uneven per-request sample counts keep the block-RNG layout aligned."""
    model = make_model()
    targets, covs = make_histories(4)
    future = np.zeros((2, N_COV))

    def run(decode):
        engine = FleetForecaster(model, decode=decode)
        streams = spawn_request_rngs(np.random.default_rng(5), 4)
        return engine.submit(
            [
                ForecastRequest(t[-12:], c[-12:], future, n_samples=3 + 2 * i, rng=s)
                for i, (t, c, s) in enumerate(zip(targets, covs, streams))
            ]
        )

    for a, b in zip(run("stepwise"), run("fused")):
        np.testing.assert_array_equal(a, b)


def test_fused_is_the_default_and_decode_arg_is_validated():
    model = make_model()
    assert FleetForecaster(model).decode == "fused"
    with pytest.raises(ValueError, match="decode"):
        FleetForecaster(model, decode="turbo")


# ----------------------------------------------------------------------
# kernel-level parity
# ----------------------------------------------------------------------
def test_sigmoid_dense_bitwise_matches_masked_sigmoid():
    rng = np.random.default_rng(0)
    for shape in [(5,), (64, 3), (300, 24)]:
        x = rng.normal(size=shape) * 6
        np.testing.assert_array_equal(sigmoid_dense(x.copy()), sigmoid(x))
        # in-place with preallocated scratch
        y = x.copy()
        scratch = (np.empty_like(y), np.empty_like(y))
        res = sigmoid_dense(y, out=y, scratch=scratch)
        assert res is y
        np.testing.assert_array_equal(y, sigmoid(x))


@pytest.mark.parametrize("backbone", ["lstm", "gru"])
def test_decode_sequence_matches_inference_step_loop(backbone):
    """The fused ``step_decode`` kernels replay the serving ``step`` bitwise.

    float64 runs through ``decode_sequence``.  float32 and int8, which the
    float64-only stepwise decode reference cannot check, run through
    ``begin_decode``/``step_decode`` at the served model's width.
    """
    model = make_model(backbone)
    stack = model.lstm
    stepper = recurrent_inference(stack)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 5, 1 + N_COV))

    states = stepper.zero_state(6)
    outputs = np.empty((6, 5, stack.hidden_dim))
    for t in range(x.shape[1]):
        outputs[:, t, :], states = stepper.step(x[:, t, :], states)

    fused_out, fused_states = stack.decode_sequence(x)
    np.testing.assert_array_equal(fused_out, outputs)
    packed_ref = stack.export_state(states)
    packed_fused = stack.export_state(fused_states)
    np.testing.assert_array_equal(packed_fused, packed_ref)

    wide = make_model(backbone, hidden_dim=40)
    x = rng.normal(size=(33, 5, 1 + N_COV))
    for precision in ("float64", "float32", "int8"):
        dtype = compute_dtype(precision)
        stack = convert_module(wide.lstm, precision)
        stepper = recurrent_inference(stack, dtype=dtype)
        states = stepper.zero_state(33)
        ctxs = stack.begin_decode(states, dtype=dtype)
        for t in range(x.shape[1]):
            expected, states = stepper.step(x[:, t, :], states)
            got = stack.step_decode(np.ascontiguousarray(x[:, t, :], dtype=dtype), ctxs)
            assert got.dtype == dtype
            assert got.tobytes() == expected.tobytes(), precision
        final = [(ctx.h, ctx.c) if backbone == "lstm" else ctx.h for ctx in ctxs]
        packed = stack.export_state(final).tobytes()
        assert packed == stack.export_state(states).tobytes(), precision


@pytest.mark.parametrize("batch", [1, 8, 33])
@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("backbone", ["lstm", "gru"])
def test_warmup_forward_sequence_matches_inference_step_loop(backbone, precision, batch):
    """The warm-up's ``forward_sequence`` (dense sigmoid) replays ``step``
    (masked sigmoid) byte for byte, at the served model's width."""
    model = make_model(backbone, hidden_dim=40)
    dtype = compute_dtype(precision)
    stack = convert_module(model.lstm, precision)
    stepper = recurrent_inference(stack, dtype=dtype)
    x = np.random.default_rng(batch).normal(size=(batch, 29, 1 + N_COV))

    states = stepper.zero_state(batch)
    outputs = np.empty((batch, 29, stack.hidden_dim), dtype=dtype)
    for t in range(x.shape[1]):
        outputs[:, t, :], states = stepper.step(x[:, t, :], states)

    fused_out, fused_states = stepper.forward_sequence(x)
    assert fused_out.dtype == dtype
    assert fused_out.tobytes() == outputs.tobytes()
    assert stack.export_state(fused_states).tobytes() == stack.export_state(states).tobytes()


def test_decode_contexts_do_not_mutate_the_caller_states():
    """``begin_decode`` copies the initial states in; stepping leaves them."""
    model = make_model()
    stack = model.lstm
    states = stack.zero_state(4)
    before = stack.export_state(states).copy()
    ctxs = stack.begin_decode(states)
    rng = np.random.default_rng(1)
    for _ in range(3):
        stack.step_decode(rng.normal(size=(4, 1 + N_COV)), ctxs)
    np.testing.assert_array_equal(stack.export_state(states), before)
