"""One rule shapes every deep forecast's engine requests: ``_forecast_requests``.

A forecast's sampled covariate plans draw from its stream; with one plan
the stream also drives the samples, with k > 1 plans the sample budget is
split and plan j samples from the j-th spawned child.  The library
(``forecast``/``forecast_fleet``) and every served path (live sessions,
scenario scoring, shadow evaluation) go through it, so a served
RankNet-MLP forecast carries the PitModel's uncertainty exactly like the
library's.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.learning.shadow as shadow_module
from repro.artifacts import ArtifactStore
from repro.data import build_race_features
from repro.learning import ShadowEvaluator
from repro.learning.shadow import derive_task_seed
from repro.models import DeepARForecaster, RankNetForecaster
from repro.scenarios import ScenarioEngine, parse_scenario
from repro.scenarios.spec import derive_seed
from repro.serving import FleetForecaster, ForecastService
from repro.serving.requests import fold_forecasts
from repro.serving.sessions import RaceSession
from repro.simulation import RaceSimulator, track_for_year

TINY = dict(
    encoder_length=12,
    decoder_length=2,
    hidden_dim=8,
    num_layers=1,
    epochs=1,
    batch_size=32,
    max_train_windows=100,
    seed=4,
)
PLANS = 5
N_SAMPLES = 10  # two samples per plan


@pytest.fixture(scope="module")
def race():
    track = replace(track_for_year("Indy500", 2018), total_laps=45, num_cars=8)
    return RaceSimulator(track, event="Indy500", year=2019, seed=3).run()


@pytest.fixture(scope="module")
def series(race):
    return build_race_features(race)


@pytest.fixture(scope="module")
def store(tmp_path_factory, series):
    store = ArtifactStore(str(tmp_path_factory.mktemp("forecast-requests")))
    store.save_model("mlp", RankNetForecaster(variant="mlp", **TINY).fit(series))
    store.save_model("oracle", RankNetForecaster(variant="oracle", **TINY).fit(series))
    store.save_model("deepar", DeepARForecaster(**TINY).fit(series))
    return store


def in_process(forecaster, series, origin, horizon, rng, key=None):
    """The forecast ``_forecast_requests`` + ``fold_forecasts`` give on a fresh engine."""
    requests = forecaster._forecast_requests(series, origin, horizon, N_SAMPLES, rng, key=key)
    results = FleetForecaster(forecaster.model).submit(requests)
    return fold_forecasts([requests], results)[0]


# ----------------------------------------------------------------------
# the rule itself
# ----------------------------------------------------------------------
def test_one_plan_runs_its_samples_on_the_forecast_stream(store, series):
    oracle = store.load_model("oracle")
    rng = np.random.default_rng(7)
    (request,) = oracle._forecast_requests(series[0], 20, 3, N_SAMPLES, rng)
    assert request.rng is rng
    assert request.n_samples == N_SAMPLES
    assert request.key == (series[0].race_id, series[0].car_id)


def test_k_plans_draw_from_the_stream_and_sample_from_its_children(store, series):
    mlp = store.load_model("mlp")
    assert mlp.pit_plans_per_forecast == PLANS
    requests = mlp._forecast_requests(series[0], 20, 6, N_SAMPLES, 11, key=("k", 1))
    assert len(requests) == PLANS
    assert all(r.n_samples == N_SAMPLES // PLANS for r in requests)
    assert all(r.key == ("k", 1) and r.origin == 20 for r in requests)
    # plans are successive draws from the forecast's stream
    plan_rng = np.random.default_rng(11)
    for request in requests:
        expected = mlp._future_covariates(series[0], 20, 6, rng=plan_rng)
        assert request.future_covariates.tobytes() == expected.tobytes()
    # plan j samples from the j-th spawned child of that stream
    children = np.random.default_rng(11).spawn(PLANS)
    for request, child in zip(requests, children):
        assert request.rng.bit_generator.state == child.bit_generator.state


def test_an_mlp_request_no_longer_replays_its_plan_seed_as_noise(store, series):
    # the plan and the sample noise used to start from the same seed
    mlp = store.load_model("mlp")
    seed = 123
    noise_of_the_seed = np.random.default_rng(seed).standard_normal(16)
    for request in mlp._forecast_requests(series[1], 22, 4, N_SAMPLES, seed):
        assert request.rng.standard_normal(16).tobytes() != noise_of_the_seed.tobytes()


def test_fold_stacks_plans_and_passes_one_request_results_through():
    a, b, c = (np.full((2, 3), float(i)) for i in range(3))
    folded = fold_forecasts([["x"], ["y", "z"]], [a, b, c])
    assert folded[0] is a
    np.testing.assert_array_equal(folded[1], np.vstack([b, c]))


# ----------------------------------------------------------------------
# served RankNet-MLP forecasts equal the in-process rule
# ----------------------------------------------------------------------
def test_live_session_mlp_forecast_is_k_plans_of_the_request_stream(store, series):
    mlp = store.load_model("mlp")
    origin, horizon = 20, 2
    session = RaceSession(mlp, horizon=horizon, n_samples=N_SAMPLES, min_history=12, rng=5)
    served = session.forecast_at(series, origin)
    eligible = [s for s in series if 12 <= origin < len(s) - 1]
    assert sorted(served) == sorted(s.car_id for s in eligible)
    streams = np.random.default_rng(5).spawn(len(eligible))
    for car_series, stream in zip(eligible, streams):
        expected = np.clip(in_process(mlp, car_series, origin, horizon, stream), 1.0, 33.0)
        samples = served[car_series.car_id]
        assert samples.shape == (PLANS * (N_SAMPLES // PLANS), horizon)
        assert samples.tobytes() == expected.tobytes()


def test_scenario_mlp_forecast_is_k_plans_of_the_request_seed(store):
    service = ForecastService(store)
    submitted = []

    def submit(named):
        results = service.submit(named)
        submitted.append(([n.request for n in named], results))
        return results

    engine = ScenarioEngine(resolve=lambda name: service.load(name).forecaster, submit=submit)
    spec = parse_scenario(
        {
            "scenario": "scored-mlp-plans",
            "kind": "race",
            "races": [{"event": "Indy500", "year": 2018}],
            "points": [{"track_total_laps": 30, "track_num_cars": 6}],
            "replicas": 1,
            "forecast": {"model": "mlp", "origins": [12, 18], "horizon": 4,
                         "n_samples": N_SAMPLES},
        }
    )
    job = next(iter(spec.jobs()))
    engine.run_job(spec, job, seed=9)
    ((requests, results),) = submitted
    assert requests and len(requests) % PLANS == 0

    mlp = service.load("mlp").forecaster
    race, _ = engine._simulate(spec, job, 9)
    by_car = {int(s.car_id): s for s in build_race_features(race)}
    for start in range(0, len(requests), PLANS):
        plans = requests[start : start + PLANS]
        key, origin = plans[0].key, plans[0].origin
        assert all(r.key == key and r.origin == origin for r in plans)
        seed = derive_seed(9, spec.name, job.label, "forecast", origin, key[1])
        expected = in_process(mlp, by_car[key[1]], origin, 4, seed, key=key)
        served = fold_forecasts([plans], results[start : start + PLANS])[0]
        assert served.shape == (PLANS * (N_SAMPLES // PLANS), 4)
        assert np.asarray(served).tobytes() == expected.tobytes()


def test_shadow_mlp_forecast_is_k_plans_of_the_task_seed(store, race, series, monkeypatch):
    folds = []

    def spy(groups, results):
        folded = fold_forecasts(groups, results)
        folds.append((groups, folded))
        return folded

    monkeypatch.setattr(shadow_module, "fold_forecasts", spy)
    horizon = 2
    ShadowEvaluator(store, horizon=horizon, n_samples=N_SAMPLES, min_history=12, stride=9).evaluate(
        "mlp", "deepar", [race], seed=3
    )
    assert folds
    mlp = store.load_model("mlp")
    by_car = {int(s.car_id): s for s in series}
    checked = 0
    for groups, folded in folds:
        for group, samples in zip(groups, folded):
            if group[0].model != "mlp":
                assert len(group) == 1
                continue
            assert len(group) == PLANS
            request = group[0].request
            race_id, car_id = request.key
            seed = derive_task_seed(3, race_id, car_id, request.origin)
            expected = in_process(mlp, by_car[car_id], request.origin, horizon, seed)
            assert samples.shape == (PLANS * (N_SAMPLES // PLANS), horizon)
            assert np.asarray(samples).tobytes() == expected.tobytes()
            checked += 1
    assert checked
