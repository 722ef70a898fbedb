"""RaceSession / SessionManager: lap-streamed forecasts match full replays."""

from dataclasses import replace

import numpy as np
import pytest

from repro.data import build_race_features
from repro.models import DeepARForecaster
from repro.serving.sessions import RaceSession, SessionManager, replay_race
from repro.simulation import RaceSimulator, track_for_year


@pytest.fixture(scope="module")
def race_and_forecaster():
    track = replace(track_for_year("Indy500", 2018), total_laps=55, num_cars=8)
    race = RaceSimulator(track, event="Indy500", year=2019, seed=9).run()
    series = build_race_features(race)
    forecaster = DeepARForecaster(encoder_length=12, decoder_length=2, hidden_dim=8,
                                  epochs=1, batch_size=32, max_train_windows=100, seed=0)
    forecaster.fit(series[:4])
    return race, series, forecaster


SETTINGS = {"horizon": 2, "n_samples": 5, "min_history": 12}


def _session(forecaster, seed=0, **kwargs):
    return RaceSession(forecaster, rng=seed, **SETTINGS, **kwargs)


def _replay(forecaster, race, seed=0, **kwargs):
    return replay_race(forecaster, race, rng=seed, **SETTINGS, **kwargs)


def _assert_forecasts_equal(got, reference):
    assert [origin for origin, _ in got] == [origin for origin, _ in reference]
    for (origin, f1), (_, f2) in zip(got, reference):
        assert sorted(f1) == sorted(f2)
        for car_id in f1:
            np.testing.assert_array_equal(f1[car_id], f2[car_id])


def test_lap_streamed_session_matches_full_feature_replay(race_and_forecaster):
    """The acceptance gate: streaming laps == forecast_at over the finished race."""
    race, series, forecaster = race_and_forecaster

    session = _session(
        forecaster, seed=0, event=race.event, year=race.year, race_id=race.race_id, delay=4, start=14
    )
    streamed = []
    for lap, records in race.iter_laps():
        streamed.extend(session.observe_lap(lap, records))
    streamed.extend(session.finish())

    forecaster.fleet_engine("carry").reset_cache()
    reference_session = _session(forecaster, seed=0)
    reference = []
    # the open-ended session drains to the replay bound: the last origin
    # whose whole horizon stays inside the feed (num_laps - horizon - 1)
    for origin in range(14, race.num_laps - reference_session.horizon):
        forecasts = reference_session.forecast_at(series, origin)
        if forecasts:
            reference.append((origin, forecasts))

    _assert_forecasts_equal(streamed, reference)
    assert len(streamed) > 20


def test_stream_is_the_session_core_and_respects_stride(race_and_forecaster):
    race, _, forecaster = race_and_forecaster
    origins = [origin for origin, _ in _replay(forecaster, race, seed=1, start=14, stop=24, stride=5)]
    assert origins == [14, 19, 24]


def test_session_emits_nothing_before_the_delay(race_and_forecaster):
    race, _, forecaster = race_and_forecaster
    session = _session(forecaster, seed=2, delay=4, start=14)
    feed = race.iter_laps()
    emitted = []
    for _ in range(18):  # laps 1..18 < start + 1 + delay = 19
        emitted.extend(session.observe_lap(*next(feed)))
    assert emitted == []
    emitted.extend(session.observe_lap(*next(feed)))  # lap 19 finalises origin 14
    assert [origin for origin, _ in emitted] == [14]
    assert session.next_origin == 15


def test_session_rejects_delay_below_shift_lag(race_and_forecaster):
    _, _, forecaster = race_and_forecaster
    with pytest.raises(ValueError, match="shift lag"):
        _session(forecaster, delay=1)


def test_session_refuses_an_unfitted_forecaster():
    with pytest.raises(ValueError, match="must be fitted"):
        _session(DeepARForecaster(encoder_length=12, decoder_length=2))


def test_session_rejects_out_of_order_laps(race_and_forecaster):
    race, _, forecaster = race_and_forecaster
    session = _session(forecaster)
    feed = race.iter_laps()
    lap, records = next(feed)
    session.observe_lap(lap, records)
    with pytest.raises(ValueError, match="increasing order"):
        session.observe_lap(lap, records)


def test_session_stop_bounds_the_origins(race_and_forecaster):
    race, _, forecaster = race_and_forecaster
    session = _session(forecaster, seed=3, start=14, stop=16, delay=4)
    emitted = []
    for lap, records in race.iter_laps():
        emitted.extend(session.observe_lap(lap, records))
    emitted.extend(session.finish())
    assert [origin for origin, _ in emitted] == [14, 15, 16]


def test_open_ended_finish_respects_the_stream_horizon_bound(race_and_forecaster):
    """Draining a stop=None session must not emit origins whose forecast
    horizon extends past the observed feed — the same bound replay_race uses."""
    race, _, forecaster = race_and_forecaster
    session = _session(
        forecaster, seed=4, event=race.event, year=race.year, race_id=race.race_id, start=14
    )
    emitted = []
    for lap, records in race.iter_laps():
        emitted.extend(session.observe_lap(lap, records))
    emitted.extend(session.finish())
    streamed = list(_replay(forecaster, race, seed=4, start=14))
    assert [origin for origin, _ in emitted] == [origin for origin, _ in streamed]


def test_session_manager_lifecycle(race_and_forecaster):
    race, _, forecaster = race_and_forecaster
    manager = SessionManager(limit=2)
    first = manager.open(_session(forecaster), model="deepar")
    second = manager.open(_session(forecaster), model="deepar")
    assert len(manager) == 2
    assert manager.get(first.session_id) is first
    with pytest.raises(RuntimeError, match="session limit"):
        manager.open(_session(forecaster), model="deepar")
    described = manager.describe()
    assert {d["session"] for d in described} == {first.session_id, second.session_id}
    assert manager.close(first.session_id) is first
    with pytest.raises(KeyError):
        manager.get(first.session_id)
    with pytest.raises(KeyError):
        manager.close(first.session_id)
    assert [m.session_id for m in manager.close_all()] == [second.session_id]
    assert len(manager) == 0
