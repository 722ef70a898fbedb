"""Byte-identity of the fused decode engine against the stepwise references.

The fused path (block RNG + ``step_decode`` kernels + hoisted covariates)
must replay the per-lap reference loop (``tests/reference/decode.py``) bit
for bit: same ``stable_matmul`` products, bitwise-equal dense sigmoid, and
identical RNG stream consumption — including when several requests share
one ``Generator``.  The kernel itself is checked against the masked-sigmoid
stepping kernels kept in ``tests/reference/recurrent.py``, both directly
and through a per-lap engine that runs its warm-up and every lap on them.
"""

import numpy as np
import pytest

from reference.decode import randomize_biases, stepwise_forecaster
from reference.recurrent import reference_forecaster, reference_stepper
from repro.models.deep.rankmodel import RankSeqModel
from repro.nn.activations import sigmoid, sigmoid_dense
from repro.nn.inference import StackInference
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
    if decode == "reference":
        engine = reference_forecaster(model, mode=mode)
    elif decode == "stepwise":
        engine = stepwise_forecaster(model, mode=mode)
    else:
        engine = FleetForecaster(model, mode=mode)
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
    model = randomize_biases(make_model(backbone))
    targets, covs = make_histories(5)
    origins = (15, 16, 17)  # carry mode advances cached states between these
    stepwise = submit(model, targets, covs, "stepwise", mode=mode, origins=origins)
    reference = submit(model, targets, covs, "reference", mode=mode, origins=origins)
    fused = submit(model, targets, covs, "fused", mode=mode, origins=origins)
    assert len(stepwise) == len(reference) == len(fused) == 15
    for a, r, b in zip(stepwise, reference, fused):
        assert a.shape == r.shape == b.shape == (7, 3)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(r, b)


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
        engine = stepwise_forecaster(model) if decode == "stepwise" else FleetForecaster(model)
        streams = spawn_request_rngs(np.random.default_rng(5), 4)
        return engine.submit(
            [
                ForecastRequest(t[-12:], c[-12:], future, n_samples=3 + 2 * i, rng=s)
                for i, (t, c, s) in enumerate(zip(targets, covs, streams))
            ]
        )

    for a, b in zip(run("stepwise"), run("fused")):
        np.testing.assert_array_equal(a, b)


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
        res = sigmoid_dense(y, out=y, scratch=np.empty_like(y))
        assert res is y
        np.testing.assert_array_equal(y, sigmoid(x))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_dense_bitwise_on_special_values(dtype):
    """``max(m, e)`` is the old ``m + (1 - m) * e`` numerator on every
    input: signed zeros, infinities, subnormals and the exp under/overflow
    edges agree bit for bit with the masked sigmoid, ``out`` aliasing ``x``
    or not; NaN stays NaN."""
    tiny = np.finfo(dtype).tiny
    special = [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, tiny / 4, -tiny / 4,
               745.0, -745.0, 746.0, -746.0, 88.0, -88.0, 104.0, -104.0]
    rng = np.random.default_rng(1)
    x = np.concatenate([np.array(special), rng.normal(size=20_000) * 30]).astype(dtype)
    expected = sigmoid(x).tobytes()
    assert sigmoid(x).dtype == dtype
    assert sigmoid_dense(x).tobytes() == expected
    y = x.copy()
    assert sigmoid_dense(y, out=y, scratch=np.empty_like(y)) is y
    assert y.tobytes() == expected
    block = x[:4000].reshape(40, 100)
    strided = block[:, :60]  # a gate-block view: rows strided, as in the kernels
    aliased = block.copy()[:, :60]
    sigmoid_dense(aliased, out=aliased, scratch=np.empty(aliased.shape, dtype=dtype))
    assert aliased.tobytes() == sigmoid(strided).tobytes()
    nan = sigmoid_dense(np.array([np.nan, -np.nan, 1.0], dtype=dtype))
    assert np.isnan(nan[:2]).all() and nan[2] == sigmoid(np.array([1.0], dtype=dtype))[0]


@pytest.mark.parametrize("backbone", ["lstm", "gru"])
def test_step_decode_matches_inference_step_loop(backbone):
    """The driver's ``step_decode`` and ``step`` replay the masked-sigmoid
    reference ``step`` bitwise.

    float64 runs at the small test width; float32 and int8, which the
    float64-only stepwise decode reference cannot check, run at the served
    model's width.
    """
    rng = np.random.default_rng(4)
    cases = ((randomize_biases(make_model(backbone)), 6, ("float64",)),
             (randomize_biases(make_model(backbone, hidden_dim=40)), 33,
              ("float64", "float32", "int8")))
    for model, batch, precisions in cases:
        x = rng.normal(size=(batch, 5, 1 + N_COV))
        for precision in precisions:
            dtype = compute_dtype(precision)
            stack = convert_module(model.lstm, precision)
            reference = reference_stepper(stack, dtype=dtype)
            driver = StackInference(stack, dtype=dtype)
            stepper = StackInference(stack, dtype=dtype)
            states = step_states = reference.zero_state(batch)
            driver.load(states)
            for t in range(x.shape[1]):
                expected, states = reference.step(x[:, t, :], states)
                got = driver.step_decode(np.ascontiguousarray(x[:, t, :], dtype=dtype))
                stepped, step_states = stepper.step(x[:, t, :], step_states)
                assert got.dtype == stepped.dtype == dtype
                assert got.tobytes() == expected.tobytes(), precision
                assert stepped.tobytes() == expected.tobytes(), precision
            packed = stack.export_state(states).tobytes()
            assert stack.export_state(driver.states()).tobytes() == packed, precision
            assert stack.export_state(step_states).tobytes() == packed, precision


@pytest.mark.parametrize("precision", ["float64", "float32", "int8"])
@pytest.mark.parametrize("backbone", ["lstm", "gru"])
def test_gathering_load_matches_reference_step_on_gathered_rows(backbone, precision):
    """``load(states, rows)`` computes the first step's recurrent products
    on the source rows and gathers them; stepping equals the masked
    reference stepping the gathered states, byte for byte, and so do the
    later steps, which compute their products on every row again."""
    model = randomize_biases(make_model(backbone, hidden_dim=40))
    dtype = compute_dtype(precision)
    stack = convert_module(model.lstm, precision)
    reference = reference_stepper(stack, dtype=dtype)
    rng = np.random.default_rng(7)
    _, sources = reference.forward_sequence(rng.normal(size=(5, 6, 1 + N_COV)))
    rows = np.repeat(np.arange(5), [3, 1, 40, 7, 2])  # unequal sample counts
    driver = StackInference(stack, dtype=dtype)
    for _ in range(2):  # the second session reuses the grown workspace
        driver.load(sources, rows=rows)
        states = [tuple(part[rows] for part in s) if isinstance(s, tuple) else s[rows]
                  for s in sources]
        for _ in range(3):
            x = rng.normal(size=(len(rows), 1 + N_COV))
            expected, states = reference.step(x, states)
            got = driver.step_decode(np.ascontiguousarray(x, dtype=dtype))
            assert got.tobytes() == expected.tobytes(), precision
        assert stack.export_state(driver.states()).tobytes() == (
            stack.export_state(states).tobytes()
        )


@pytest.mark.parametrize("batch", [1, 8, 33])
@pytest.mark.parametrize("precision", ["float64", "float32", "int8"])
@pytest.mark.parametrize("backbone", ["lstm", "gru"])
def test_warmup_forward_sequence_matches_inference_step_loop(backbone, precision, batch):
    """The warm-up's ``forward_sequence`` (one input projection per layer,
    dense sigmoid) replays the masked-sigmoid reference ``step`` byte for
    byte, at the served model's width."""
    model = randomize_biases(make_model(backbone, hidden_dim=40))
    dtype = compute_dtype(precision)
    stack = convert_module(model.lstm, precision)
    stepper = reference_stepper(stack, dtype=dtype)
    x = np.random.default_rng(batch).normal(size=(batch, 29, 1 + N_COV))

    states = stepper.zero_state(batch)
    outputs = np.empty((batch, 29, stack.hidden_dim), dtype=dtype)
    for t in range(x.shape[1]):
        outputs[:, t, :], states = stepper.step(x[:, t, :], states)

    fused_out, fused_states = StackInference(stack, dtype=dtype).forward_sequence(x)
    assert fused_out.dtype == dtype
    assert fused_out.tobytes() == outputs.tobytes()
    assert stack.export_state(fused_states).tobytes() == stack.export_state(states).tobytes()


@pytest.mark.parametrize("backbone", ["lstm", "gru"])
def test_decode_contexts_do_not_mutate_the_caller_states(backbone):
    """``load`` copies the initial states in; stepping leaves them, and the
    states the driver returns never alias its contexts."""
    stack = make_model(backbone).lstm
    driver = StackInference(stack)
    states = stack.zero_state(4)
    before = stack.export_state(states).copy()
    driver.load(states)
    rng = np.random.default_rng(1)
    for _ in range(3):
        driver.step_decode(rng.normal(size=(4, 1 + N_COV)))
    np.testing.assert_array_equal(stack.export_state(states), before)

    _, warm = driver.forward_sequence(rng.normal(size=(4, 6, 1 + N_COV)), states)
    _, stepped = driver.step(rng.normal(size=(4, 1 + N_COV)), warm)
    np.testing.assert_array_equal(stack.export_state(states), before)
    buffers = [buf for ctx in driver.ctxs for owner in (ctx._rows, ctx._seq_rows, ctx._src_rows)
               for buf in owner._buffers]
    assert len(buffers) == len(driver.ctxs) * (9 if backbone == "lstm" else 11)
    for returned in (warm, stepped, driver.states()):
        arrays = [a for s in returned for a in (s if isinstance(s, tuple) else (s,))]
        assert not any(np.shares_memory(a, buf) for a in arrays for buf in buffers)
