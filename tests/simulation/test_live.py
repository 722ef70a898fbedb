"""Tests for live-race fleet forecasting: ``RaceSession.forecast_at`` and ``replay_race``."""

from dataclasses import replace

import numpy as np
import pytest

from repro.data import build_race_features
from repro.models import DeepARForecaster, RankNetForecaster
from repro.serving.sessions import RaceSession, replay_race
from repro.simulation import RaceSimulator, track_for_year


@pytest.fixture(scope="module")
def race_and_forecaster():
    track = replace(track_for_year("Indy500", 2018), total_laps=60, num_cars=8)
    race = RaceSimulator(track, event="Indy500", year=2019, seed=3).run()
    series = build_race_features(race)
    forecaster = DeepARForecaster(encoder_length=12, decoder_length=2, hidden_dim=8,
                                  epochs=1, batch_size=32, max_train_windows=100, seed=0)
    forecaster.fit(series[:4])
    return race, series, forecaster


def test_live_forecaster_requires_fitted_model():
    unfitted = DeepARForecaster(encoder_length=12, decoder_length=2, hidden_dim=8, epochs=1)
    with pytest.raises(ValueError):
        RaceSession(unfitted)


def test_forecast_at_returns_whole_field(race_and_forecaster):
    _, series, forecaster = race_and_forecaster
    session = RaceSession(forecaster, horizon=2, n_samples=6, min_history=12, rng=0)
    forecasts = session.forecast_at(series, origin=20)
    eligible = [s.car_id for s in series if 12 <= 20 < len(s) - 1]
    assert sorted(forecasts) == sorted(eligible)
    for samples in forecasts.values():
        assert samples.shape == (6, 2)
        assert np.all((samples >= 1.0) & (samples <= 33.0))


def test_stream_carries_states_between_laps(race_and_forecaster):
    race, _, forecaster = race_and_forecaster
    replayed = replay_race(
        forecaster, race, horizon=2, n_samples=5, min_history=12, rng=0, start=14, stop=20
    )
    origins = [origin for origin, _ in replayed]
    assert origins == list(range(14, 21))
    stats = forecaster.fleet_engine(mode="carry").stats
    # after the first lap every car advances incrementally (1 step per lap)
    assert stats["cache_carries"] > 0
    assert stats["warmup_steps"] < stats["requests"] * 11  # << full replays


def test_stream_respects_stride(race_and_forecaster):
    race, _, forecaster = race_and_forecaster
    replayed = replay_race(
        forecaster, race, horizon=2, n_samples=4, min_history=12, rng=0, start=14, stop=24, stride=5
    )
    origins = [origin for origin, _ in replayed]
    assert origins == [14, 19, 24]


def test_fine_tune_invalidates_live_carried_states(race_and_forecaster):
    race, series, forecaster = race_and_forecaster
    session = RaceSession(forecaster, horizon=2, n_samples=4, min_history=12, rng=1)
    session.forecast_at(series, origin=20)
    assert session.engine.stats["cache_entries"] > 0
    forecaster.fine_tune(series[:2], epochs=1)
    # the carried warm-up states were computed under the old weights
    assert session.engine.stats["cache_entries"] == 0


def test_refit_rebinds_live_engine_to_new_model(race_and_forecaster):
    _, series, forecaster = race_and_forecaster
    session = RaceSession(forecaster, horizon=2, n_samples=4, min_history=12, rng=2)
    engine_before = session.engine
    forecaster.fit(series[:3])
    # the engine resolves through the forecaster, so a re-fit swaps in a
    # fresh engine bound to the new model instead of serving stale weights
    assert session.engine is not engine_before
    assert session.engine.model is forecaster.model
    assert session.forecast_at(series, origin=20)  # still serves forecasts


def test_identical_mlp_sessions_on_one_model_emit_identical_forecasts(race_and_forecaster):
    # RankNet-MLP samples pit plans: a session draws them from its requests'
    # streams, so a second identically seeded session on the same resident
    # model replays the first byte for byte
    race, series, _ = race_and_forecaster
    mlp = RankNetForecaster(variant="mlp", encoder_length=12, decoder_length=2, hidden_dim=8,
                            epochs=1, batch_size=32, max_train_windows=100, seed=0)
    mlp.fit(series[:4])

    def run():
        return list(
            replay_race(
                mlp, race, horizon=8, n_samples=4, min_history=12, rng=5, start=14, stop=30, stride=4
            )
        )

    first, second = run(), run()
    assert [origin for origin, _ in first] == [origin for origin, _ in second]
    for (_, a), (_, b) in zip(first, second):
        assert a.keys() == b.keys()
        for car in a:
            assert a[car].tobytes() == b[car].tobytes()
