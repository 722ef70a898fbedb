"""Scenario forecast scoring on the RankNet variants (Joint and MLP)."""

from dataclasses import replace

import pytest

from repro.artifacts import ArtifactStore
from repro.data import build_race_features
from repro.models import RankNetForecaster
from repro.scenarios import ScenarioEngine, parse_scenario
from repro.serving import ForecastService
from repro.serving.client import ForecastClient
from repro.serving.server import ForecastServer, ServerConfig
from repro.simulation import RaceSimulator, track_for_year

TINY_MODEL = dict(
    encoder_length=12,
    decoder_length=2,
    hidden_dim=8,
    num_layers=1,
    epochs=1,
    batch_size=32,
    max_train_windows=100,
    seed=4,
)


def scored_spec(model: str) -> dict:
    return {
        "scenario": f"scored-{model}",
        "kind": "race",
        "races": [{"event": "Indy500", "year": 2018}],
        "points": [{"track_total_laps": 30, "track_num_cars": 6}],
        "replicas": 1,
        "forecast": {"model": model, "origins": [12, 16, 20], "horizon": 8, "n_samples": 6},
    }


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    track = replace(track_for_year("Indy500", 2018), total_laps=45, num_cars=8)
    series = build_race_features(RaceSimulator(track, event="Indy500", year=2019, seed=3).run())
    store = ArtifactStore(str(tmp_path_factory.mktemp("scenario-models")))
    for variant in ("joint", "mlp"):
        store.save_model(variant, RankNetForecaster(variant=variant, **TINY_MODEL).fit(series))
    return store


def test_a_joint_model_scores_scenario_forecasts(store):
    engine = ScenarioEngine.from_service(ForecastService(store))
    results, _ = engine.run(parse_scenario(scored_spec("joint")), seed=3)
    scores = results[0].forecast
    assert scores["origins"] == [12, 16, 20]
    assert all(value >= 0.0 for value in scores["mae"])


def test_an_mlp_scenario_streamed_twice_from_one_gateway_matches(store):
    # the resident model serves both runs: its pit plans must come from the
    # requests' seeds, not from the model's own (advancing) stream
    config = ServerConfig(store=store.root, port=0, batch_window_ms=1.0)
    with ForecastServer(config) as server:
        client = ForecastClient(port=server.port)
        first = client.run_scenario(scored_spec("mlp"), seed=9)
        second = client.run_scenario(scored_spec("mlp"), seed=9)
    assert first[0][0].forecast["mae"]
    assert first == second
