"""Byte pins for served forecasts of the one-plan deep models.

Oracle and DeepAR forecasts sample no covariate plan, so their live
sessions, scenario scores and shadow scores must not move when the way
requests are shaped changes.  The digests below were computed on the code
before ``_forecast_requests`` replaced the hand-written request builders.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.artifacts import ArtifactStore
from repro.data import build_race_features
from repro.learning import ShadowEvaluator
from repro.models import DeepARForecaster, RankNetForecaster
from repro.scenarios import ScenarioEngine, parse_scenario
from repro.serving import ForecastService
from repro.serving.sessions import replay_race
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

SESSION_DIGESTS = {
    "oracle": "9dd62589755e510ce16ee118d63cf24c8e7f83910fbc6ff9ddf67ffcaabead6e",
    "deepar": "4d79fcb87b0f68a760440e46a0b85c6c0ab0d65164ce33f36861d2e840a47cdd",
}
SCENARIO_DIGESTS = {
    "oracle": "cfda3f58966e86ccccac35ff01be916bc181fe2624fe144ea4a96863330cd8f2",
    "deepar": "3e3c564b85a90f412dddd7b96669dffe7892d83f057e932e1476214a04705a44",
}
SHADOW_DIGEST = "3767ef02dbf031cb9a453c9e8bb13b591755ef6ad20cd52b9e131d0ff77b6a3d"


@pytest.fixture(scope="module")
def race():
    track = replace(track_for_year("Indy500", 2018), total_laps=45, num_cars=8)
    return RaceSimulator(track, event="Indy500", year=2019, seed=3).run()


@pytest.fixture(scope="module")
def store(tmp_path_factory, race):
    series = build_race_features(race)
    store = ArtifactStore(str(tmp_path_factory.mktemp("served-digests")))
    store.save_model("oracle", RankNetForecaster(variant="oracle", **TINY).fit(series))
    store.save_model("deepar", DeepARForecaster(**TINY).fit(series))
    return store


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("model", sorted(SESSION_DIGESTS))
def test_live_session_bytes_are_pinned(store, race, model):
    h = hashlib.sha256()
    for origin, forecasts in replay_race(
        store.load_model(model), race, horizon=3, n_samples=6, min_history=12, rng=5,
        start=14, stop=30, stride=3,
    ):
        h.update(str(origin).encode())
        for car in sorted(forecasts):
            h.update(str(car).encode() + forecasts[car].tobytes())
    assert h.hexdigest() == SESSION_DIGESTS[model]


@pytest.mark.parametrize("model", sorted(SCENARIO_DIGESTS))
def test_scenario_scores_are_pinned(store, model):
    spec = parse_scenario(
        {
            "scenario": f"pinned-{model}",
            "kind": "race",
            "races": [{"event": "Indy500", "year": 2018}],
            "points": [{"track_total_laps": 30, "track_num_cars": 6}],
            "replicas": 2,
            "forecast": {"model": model, "origins": [12, 16, 20], "horizon": 4, "n_samples": 6},
        }
    )
    results, summary = ScenarioEngine.from_service(ForecastService(store)).run(spec, seed=9)
    document = {"results": [r.to_doc() for r in results], "summary": summary.to_doc()}
    assert digest(json.dumps(document, sort_keys=True).encode()) == SCENARIO_DIGESTS[model]


def test_shadow_scores_are_pinned(store, race):
    report = ShadowEvaluator(store, n_samples=8, min_history=12, stride=5).evaluate(
        "oracle", "deepar", [race], seed=3
    )
    assert digest(json.dumps(report.scores, sort_keys=True).encode()) == SHADOW_DIGEST
