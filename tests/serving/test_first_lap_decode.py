"""The fused decode's once-per-request first lap changes no bit.

The engine steps lap 1 on one row per request and repeats only the head's
``(mu, sigma)`` over the samples.  ``reference/decode.py`` keeps the
all-rows loop it replaced; on float64, float32 and int8 the two must
return the same sample bytes.  The per-lap decode reference covers
float64 only, so the low tiers are also run through the fused loop on
the masked-sigmoid reference kernels (``reference/recurrent.py``), whose
lap 2 computes the recurrent products on every sample row rather than
once per request.  The model draws random recurrent biases, so a
reordered bias addition changes bits.
"""

import numpy as np
import pytest

from reference.decode import all_rows_forecaster, randomize_biases
from reference.recurrent import ReferenceDriver
from repro.models.deep.rankmodel import RankSeqModel
from repro.serving import FleetForecaster, ForecastRequest, spawn_request_rngs

N_COV = 3
ORIGINS = (15, 16, 17)  # carry mode advances cached states between these

# (per-request sample counts, one shared RNG stream); the last request
# shares car 0's warm-up slot but has its own future covariates
LAYOUTS = {
    "one-sample": ((1, 1, 1, 1, 1), False),
    "mixed-counts": ((1, 4, 2, 3, 5), False),
    "shared-rng": ((1, 4, 2, 3, 5), True),
}


def make_model(backbone):
    return RankSeqModel(num_covariates=N_COV, hidden_dim=8, num_layers=2,
                        encoder_length=12, decoder_length=3, rng=0, backbone=backbone)


def run(engine, horizon, counts, shared_rng, seed=11):
    rng = np.random.default_rng(100)
    targets = [np.clip(10 + np.cumsum(rng.normal(0, 1, 20)), 1, 33) for _ in range(4)]
    covs = [rng.normal(size=(20, N_COV)) for _ in range(4)]
    cars = (0, 1, 2, 3, 0)
    results = []
    for j, origin in enumerate(ORIGINS):
        if shared_rng:
            streams = [np.random.default_rng(seed + j)] * len(cars)
        else:
            streams = spawn_request_rngs(np.random.default_rng(seed + j), len(cars))
        requests = [
            ForecastRequest(
                targets[car][: origin + 1][-12:], covs[car][: origin + 1][-12:],
                rng.normal(size=(horizon, N_COV)), n_samples=n,
                rng=stream, key=car, origin=origin,
            )
            for car, n, stream in zip(cars, counts, streams)
        ]
        results.extend(engine.submit(requests))
    assert engine.stats["warmup_shared"] == len(ORIGINS)
    return results


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("horizon", [1, 2, 3])
@pytest.mark.parametrize("precision", ["float64", "float32", "int8"])
@pytest.mark.parametrize("mode", ["exact", "carry"])
@pytest.mark.parametrize("backbone", ["lstm", "gru"])
def test_first_lap_once_per_request_matches_all_rows_reference(
    backbone, mode, precision, horizon, layout
):
    counts, shared_rng = LAYOUTS[layout]
    model = randomize_biases(make_model(backbone))
    got = run(FleetForecaster(model, mode=mode, precision=precision),
              horizon, counts, shared_rng)
    expected = run(all_rows_forecaster(model, mode=mode, precision=precision),
                   horizon, counts, shared_rng)
    assert len(got) == len(expected) == len(ORIGINS) * len(counts)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype == np.float64
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("layout", ["mixed-counts", "shared-rng"])
@pytest.mark.parametrize("horizon", [2, 3])
@pytest.mark.parametrize("precision", ["float64", "float32", "int8"])
@pytest.mark.parametrize("mode", ["exact", "carry"])
@pytest.mark.parametrize("backbone", ["lstm", "gru"])
def test_lap_two_products_once_per_request_match_masked_reference(
    backbone, mode, precision, horizon, layout
):
    """Lap 2's ``h @ w_h`` (and the GRU's ``h_proj``) run on one row per
    request and are gathered to the sample rows; the masked reference runs
    them on every row.  Unequal sample counts and a shared warm-up slot
    (car 0 twice, different future covariates) keep the gather honest."""
    counts, shared_rng = LAYOUTS[layout]
    model = randomize_biases(make_model(backbone))
    got = run(FleetForecaster(model, mode=mode, precision=precision),
              horizon, counts, shared_rng)
    reference = FleetForecaster(model, mode=mode, precision=precision)
    backend = reference._backend
    backend.driver = ReferenceDriver(backend.stack_module, dtype=backend.dtype)
    expected = run(reference, horizon, counts, shared_rng)
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()
