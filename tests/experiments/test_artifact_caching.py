"""Tests for --artifacts-dir train-once caching in the experiment harness."""

from dataclasses import replace as dc_replace

import pytest

from repro.artifacts import ArtifactStore
from repro.data import build_race_features
from repro.experiments import common
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import main as runner_main
from repro.models import RandomForestForecaster
from repro.simulation import RaceSimulator, track_for_year


@pytest.fixture(scope="module")
def tiny_series():
    track = dc_replace(track_for_year("Iowa", 2018), total_laps=60, num_cars=8)
    race = RaceSimulator(track, event="Iowa", year=2018, seed=4).run()
    return build_race_features(race)


@pytest.fixture(autouse=True)
def fresh_caches():
    common.clear_caches()
    yield
    common.clear_caches()


def test_train_model_registers_and_reuses_artifacts(tmp_path, tiny_series, monkeypatch):
    config = ExperimentConfig(artifacts_dir=str(tmp_path / "store"), ml_max_instances=400)
    model = common.train_model("RandomForest", config, tiny_series[:4], tiny_series[4:6])
    store = ArtifactStore(config.artifacts_dir)
    assert len(store) == 1
    name = store.names()[0]
    assert name.startswith("RandomForestForecaster-")
    assert store.entries()[name]["data_fingerprint"] in name

    # a fresh process (simulated by clearing the in-memory cache) must load
    # the artifact instead of refitting
    common.clear_caches()

    def boom(self, *args, **kwargs):
        raise AssertionError("fit() called despite a registered artifact")

    monkeypatch.setattr(RandomForestForecaster, "fit", boom)
    reloaded = common.train_model("RandomForest", config, tiny_series[:4], tiny_series[4:6])
    forecast_a = model.forecast(tiny_series[0], 15, 3, n_samples=4)
    forecast_b = reloaded.forecast(tiny_series[0], 15, 3, n_samples=4)
    assert (forecast_a.samples == forecast_b.samples).all()


def test_changed_data_or_config_misses_the_cache(tmp_path, tiny_series):
    config = ExperimentConfig(artifacts_dir=str(tmp_path / "store"), ml_max_instances=400)
    common.train_model("CurRank", config, tiny_series[:4])
    common.clear_caches()
    # different training data -> new fingerprint -> second artifact
    common.train_model("CurRank", config, tiny_series[:3])
    store = ArtifactStore(config.artifacts_dir)
    assert len(store) == 2


def test_cache_tag_separates_artifacts(tmp_path, tiny_series):
    config = ExperimentConfig(artifacts_dir=str(tmp_path / "store"), ml_max_instances=400)
    common.train_model("CurRank", config, tiny_series[:4], cache_tag="event:Iowa")
    common.clear_caches()
    common.train_model("CurRank", config, tiny_series[:4], cache_tag="indy500")
    store = ArtifactStore(config.artifacts_dir)
    assert len(store) == 2
    assert any(name.endswith("-event-Iowa") for name in store.names())


def test_in_memory_cache_keys_on_the_whole_config_and_the_data(tiny_series):
    # no store and no clear_caches(): the in-process cache alone must tell
    # two configs apart that differ only in hidden_dim
    small = ExperimentConfig(encoder_length=12, epochs=1, max_train_windows=60, hidden_dim=4)
    large = dc_replace(small, hidden_dim=8)
    a = common.train_model("DeepAR", small, tiny_series[:4])
    b = common.train_model("DeepAR", large, tiny_series[:4])
    assert a is not b
    assert (a.hidden_dim, b.hidden_dim) == (4, 8)
    assert a.model.hidden_dim == 4 and b.model.hidden_dim == 8
    # ... and two training sets, while a repeated call still hits the cache
    c = common.train_model("DeepAR", small, tiny_series[:3])
    assert c is not a
    assert common.train_model("DeepAR", small, tiny_series[:4]) is a


def test_no_artifacts_dir_means_no_store_io(tmp_path, tiny_series):
    config = ExperimentConfig(ml_max_instances=400)
    common.train_model("CurRank", config, tiny_series[:4])
    assert not (tmp_path / "store").exists()


def test_runner_flag_plumbs_artifacts_dir(tmp_path, monkeypatch):
    captured = {}

    def fake_run_experiment(name, config):
        captured["artifacts_dir"] = config.artifacts_dir

        class Result:
            def to_text(self):
                return "ok"

        return Result()

    monkeypatch.setattr("repro.experiments.runner.run_experiment", fake_run_experiment)
    assert runner_main(["table5", "--artifacts-dir", str(tmp_path / "art")]) == 0
    assert captured["artifacts_dir"] == str(tmp_path / "art")
    assert runner_main(["table5"]) == 0
    assert captured["artifacts_dir"] is None
