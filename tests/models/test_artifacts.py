"""Round-trip tests of the to_artifact()/from_artifact() protocol.

The contract gated here: for every forecaster family, rebuilding a fitted
model from its artifact yields *byte-identical* forecasts — same samples,
bit for bit — because the artifact captures the fitted parameters, scalers,
feature configuration, field size and the forecast RNG stream.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.data import build_race_features
from repro.models import (
    ARTIFACT_FAMILIES,
    ArimaForecaster,
    CurRankForecaster,
    DeepARForecaster,
    PitModelMLP,
    RandomForestForecaster,
    RankNetForecaster,
    SVRForecaster,
    TransformerForecaster,
    XGBoostForecaster,
    from_artifact,
)
from repro.models.base import ARTIFACT_SCHEMA_VERSION
from repro.simulation import RaceSimulator, track_for_year

DEEP_KWARGS = dict(
    encoder_length=12,
    decoder_length=2,
    hidden_dim=8,
    num_layers=1,
    epochs=1,
    batch_size=32,
    max_train_windows=200,
    seed=5,
)

BUILDERS = {
    "CurRank": lambda: CurRankForecaster(),
    "ARIMA": lambda: ArimaForecaster(seed=1),
    "RandomForest": lambda: RandomForestForecaster(n_estimators=4, seed=2, max_instances=400),
    "SVM": lambda: SVRForecaster(seed=3, max_instances=250),
    "XGBoost": lambda: XGBoostForecaster(n_estimators=6, seed=4, max_instances=400),
    "DeepAR": lambda: DeepARForecaster(**DEEP_KWARGS),
    "RankNet-Oracle": lambda: RankNetForecaster(variant="oracle", **DEEP_KWARGS),
    "RankNet-Joint": lambda: RankNetForecaster(variant="joint", **DEEP_KWARGS),
    "RankNet-MLP": lambda: RankNetForecaster(variant="mlp", **DEEP_KWARGS),
    "Transformer-MLP": lambda: TransformerForecaster(
        variant="mlp", d_model=8, num_heads=2, d_ff=16, num_encoder_layers=1, **DEEP_KWARGS
    ),
}


@pytest.fixture(scope="module")
def tiny_series():
    track = replace(track_for_year("Indy500", 2018), total_laps=80, num_cars=10)
    race = RaceSimulator(track, event="Indy500", year=2017, seed=11).run()
    return build_race_features(race)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_round_trip_forecasts_are_byte_identical(name, tiny_series):
    model = BUILDERS[name]()
    model.fit(tiny_series[:6], None)
    artifact = model.to_artifact()
    clone = from_artifact(artifact)
    series = tiny_series[0]
    # both models hold the RNG stream snapshotted at to_artifact() time, so
    # their next forecasts must consume identical randomness
    original = model.forecast(series, 20, 5, n_samples=8)
    restored = clone.forecast(series, 20, 5, n_samples=8)
    np.testing.assert_array_equal(original.samples, restored.samples)
    assert clone.field_size == model.field_size
    assert clone.name == model.name
    # a second forecast keeps the streams in lockstep
    np.testing.assert_array_equal(
        model.forecast(series, 30, 4, n_samples=8).samples,
        clone.forecast(series, 30, 4, n_samples=8).samples,
    )


def test_fleet_forecasts_round_trip_byte_identical(tiny_series):
    model = RankNetForecaster(variant="mlp", **DEEP_KWARGS)
    model.fit(tiny_series[:6], None)
    clone = from_artifact(model.to_artifact())
    tasks = [(tiny_series[0], 20, 4), (tiny_series[1], 25, 4)]
    original = model.forecast_fleet(tasks, n_samples=6)
    restored = clone.forecast_fleet(tasks, n_samples=6)
    for a, b in zip(original, restored):
        np.testing.assert_array_equal(a.samples, b.samples)


def test_round_trip_after_a_fleet_spawn_keeps_the_next_fleet_forecast(tiny_series):
    """``forecast_fleet`` spawns one child stream per task; the artifact
    snapshots the seed sequence's spawn count, so a clone taken after a
    spawn derives the same next children as the original."""
    model = RankNetForecaster(variant="oracle", **DEEP_KWARGS)
    model.fit(tiny_series[:6], None)
    tasks = [(tiny_series[0], 20, 4), (tiny_series[1], 25, 4)]
    model.forecast_fleet(tasks, n_samples=6)
    clone = from_artifact(model.to_artifact())
    for a, b in zip(
        model.forecast_fleet(tasks, n_samples=6), clone.forecast_fleet(tasks, n_samples=6)
    ):
        assert a.samples.tobytes() == b.samples.tobytes()


def test_round_trip_after_an_mlp_forecast_keeps_the_next_forecast(tiny_series):
    """A RankNet-MLP forecast spawns its pit plans' children from the
    model's stream; the round trip after one keeps the next forecast."""
    model = RankNetForecaster(variant="mlp", **DEEP_KWARGS)
    model.fit(tiny_series[:6], None)
    series = tiny_series[0]
    model.forecast(series, 20, 4, n_samples=10)
    clone = from_artifact(model.to_artifact())
    original = model.forecast(series, 25, 4, n_samples=10)
    restored = clone.forecast(series, 25, 4, n_samples=10)
    assert original.samples.tobytes() == restored.samples.tobytes()


def test_pitmodel_artifact_round_trip(tiny_series):
    pit = PitModelMLP(hidden=(8,), epochs=3, seed=7)
    pit.fit(tiny_series[:6])
    clone = PitModelMLP.from_artifact(pit.to_artifact())
    rng_a = np.random.default_rng(3)
    rng_b = np.random.default_rng(3)
    plan_a = pit.plan_covariates(tiny_series[0], 20, 10, rng=rng_a)
    plan_b = clone.plan_covariates(tiny_series[0], 20, 10, rng=rng_b)
    np.testing.assert_array_equal(plan_a, plan_b)


def test_artifact_family_registry_covers_builders():
    for name in (
        "CurRankForecaster",
        "ArimaForecaster",
        "RandomForestForecaster",
        "SVRForecaster",
        "XGBoostForecaster",
        "DeepARForecaster",
        "RankNetForecaster",
        "TransformerForecaster",
        "PitModelMLP",
    ):
        assert name in ARTIFACT_FAMILIES


def test_from_artifact_rejects_unknown_family_and_wrong_class(tiny_series):
    model = CurRankForecaster().fit(tiny_series[:2])
    artifact = model.to_artifact()
    artifact.family = "NoSuchFamily"
    with pytest.raises(KeyError):
        from_artifact(artifact)
    artifact.family = "CurRankForecaster"
    with pytest.raises(ValueError):
        ArimaForecaster.from_artifact(artifact)


def test_from_artifact_rejects_newer_schema(tiny_series):
    artifact = CurRankForecaster().fit(tiny_series[:2]).to_artifact()
    artifact.schema_version = ARTIFACT_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema version"):
        CurRankForecaster.from_artifact(artifact)


def test_unfitted_model_refuses_to_snapshot():
    with pytest.raises(RuntimeError):
        DeepARForecaster(**DEEP_KWARGS).to_artifact()
    with pytest.raises(RuntimeError):
        RandomForestForecaster(n_estimators=2).to_artifact()


def test_artifact_config_hash_is_stable_and_config_sensitive():
    a = ArimaForecaster(seed=1).to_artifact()
    b = ArimaForecaster(seed=1).to_artifact()
    c = ArimaForecaster(order=(1, 1, 1), seed=1).to_artifact()
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
