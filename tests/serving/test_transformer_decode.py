"""The engine's Transformer decode against the single-car reference loop.

``_TransformerBackend`` encodes one row per distinct warm-up and batches the
decode over every request's samples; :func:`reference.transformer_decode.
transformer_forecast_samples` encodes ``n_samples`` tiled rows for one car.
Attention sums therefore run over differently shaped batches, so the
contract is error-bounded like ``tests/nn/test_attention_parity.py``:
``max|got - ref| / max|ref| <= PARITY_TOL`` on the samples, including the
2-lap history whose encoder sees a single token.
"""

import numpy as np
import pytest

from repro.models.deep.transformer import TransformerSeqModel
from repro.serving import FleetForecaster, ForecastRequest

from reference.transformer_decode import transformer_forecast_samples

PARITY_TOL = 1e-12
N_COV = 9
N_SAMPLES = 7


def scaled_error(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def make_model(target_dim=1):
    # the bench Transformer: d_model 32, 8 heads, d_ff 64, one encoder layer
    return TransformerSeqModel(num_covariates=N_COV, d_model=32, num_heads=8, d_ff=64,
                               num_encoder_layers=1, num_decoder_layers=1,
                               target_dim=target_dim, encoder_length=60,
                               decoder_length=2, rng=0)


def make_history(length, horizon, target_dim, seed):
    rng = np.random.default_rng(seed)
    target = np.clip(10 + np.cumsum(rng.normal(0, 1, (length, target_dim)), axis=0), 1, 33)
    return target, rng.normal(size=(length, N_COV)), rng.normal(size=(horizon, N_COV))


def reference(model, history, seed):
    target, covariates, future = history
    return transformer_forecast_samples(model, target, covariates, future,
                                        n_samples=N_SAMPLES,
                                        rng=np.random.default_rng(seed))


def request(history, seed):
    target, covariates, future = history
    return ForecastRequest(target, covariates, future, n_samples=N_SAMPLES,
                           rng=np.random.default_rng(seed))


@pytest.mark.parametrize("length", [2, 3, 13, 60])
@pytest.mark.parametrize("horizon", [1, 2, 5])
def test_single_request_matches_reference_loop(length, horizon):
    model = make_model()
    history = make_history(length, horizon, 1, seed=length * 10 + horizon)
    got = FleetForecaster(model).submit([request(history, seed=5)])[0]
    ref = reference(model, history, seed=5)
    assert got.shape == ref.shape == (N_SAMPLES, horizon)
    assert scaled_error(got, ref) <= PARITY_TOL


def test_fleet_submit_matches_reference_loop_per_car():
    # several cars, history lengths and horizons in one submit: each car's
    # samples still match its own single-car reference run
    model = make_model()
    shapes = [(2, 2), (60, 2), (13, 3), (2, 3), (60, 2), (29, 2)]
    histories = [make_history(length, horizon, 1, seed=i) for i, (length, horizon) in enumerate(shapes)]
    got = FleetForecaster(model).submit([request(h, seed=100 + i) for i, h in enumerate(histories)])
    for i, history in enumerate(histories):
        ref = reference(model, history, seed=100 + i)
        assert got[i].shape == ref.shape
        assert scaled_error(got[i], ref) <= PARITY_TOL, shapes[i]


@pytest.mark.parametrize("length", [2, 20])
def test_multivariate_target_matches_reference_loop(length):
    model = make_model(target_dim=2)
    history = make_history(length, 3, 2, seed=length)
    got = FleetForecaster(model).submit([request(history, seed=9)])[0]
    assert scaled_error(got, reference(model, history, seed=9)) <= PARITY_TOL
