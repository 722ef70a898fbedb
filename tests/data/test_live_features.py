"""LiveFeatureBuilder: streamed features equal the batch-built ones bitwise."""

from dataclasses import replace

import numpy as np
import pytest

from repro.data.features import LiveFeatureBuilder, build_race_features
from repro.simulation import RaceSimulator, track_for_year
from repro.simulation.telemetry import RaceTelemetry

SHIFT_LAG = 2


@pytest.fixture(scope="module")
def race():
    track = replace(track_for_year("Indy500", 2018), total_laps=50, num_cars=10)
    return RaceSimulator(track, event="Indy500", year=2018, seed=21).run()


def _truncated(race, max_lap):
    records = [r for r in race.to_records() if r.lap <= max_lap]
    return RaceTelemetry(event=race.event, year=race.year, track=race.track, records=records)


def _builder_for(race):
    return LiveFeatureBuilder(race_id=race.race_id, event=race.event, year=race.year)


def _assert_series_equal(built, reference):
    assert [s.car_id for s in built] == [s.car_id for s in reference]
    for s, r in zip(built, reference):
        assert (s.race_id, s.event, s.year) == (r.race_id, r.event, r.year)
        np.testing.assert_array_equal(s.laps, r.laps)
        np.testing.assert_array_equal(s.rank, r.rank)
        np.testing.assert_array_equal(s.lap_time, r.lap_time)
        np.testing.assert_array_equal(s.time_behind_leader, r.time_behind_leader)
        np.testing.assert_array_equal(s.covariates, r.covariates)
        assert s.covariates.dtype == r.covariates.dtype
        assert s.laps.dtype == r.laps.dtype


def test_full_feed_matches_batch_build_bitwise(race):
    builder = _builder_for(race)
    for lap, records in race.iter_laps():
        builder.observe_lap(lap, records)
    _assert_series_equal(builder.series(), build_race_features(race))


def test_partial_feed_matches_batch_build_on_truncated_race(race):
    builder = _builder_for(race)
    checkpoints = {12, 25, 37, race.num_laps}
    for lap, records in race.iter_laps():
        builder.observe_lap(lap, records)
        if lap in checkpoints:
            _assert_series_equal(builder.series(), build_race_features(_truncated(race, lap)))


def test_prefix_entries_are_final(race):
    """Everything but the trailing shift positions never changes again."""
    builder = _builder_for(race)
    final = {s.car_id: s for s in build_race_features(race)}
    for lap, records in race.iter_laps():
        builder.observe_lap(lap, records)
        for s in builder.series():
            stable = len(s) - SHIFT_LAG
            if stable <= 0:
                continue
            reference = final[s.car_id]
            np.testing.assert_array_equal(
                s.covariates[:stable], reference.covariates[: len(s)][:stable]
            )


def test_records_accepted_as_wire_dicts_and_status_strings(race):
    from_records = _builder_for(race)
    from_dicts = _builder_for(race)
    for lap, records in race.iter_laps():
        from_records.observe_lap(lap, records)
        from_dicts.observe_lap(
            lap,
            [
                {
                    "car_id": r.car_id,
                    "rank": r.rank,
                    "lap_time": r.lap_time,
                    "time_behind_leader": r.time_behind_leader,
                    # textual log statuses instead of booleans
                    "lap_status": r.lap_status,
                    "track_status": r.track_status,
                }
                for r in records
            ],
        )
    _assert_series_equal(from_dicts.series(), from_records.series())


def test_min_laps_filter_and_monotonic_laps(race):
    builder = _builder_for(race)
    lap_feed = race.iter_laps()
    for _ in range(5):
        builder.observe_lap(*next(lap_feed))
    assert builder.series() == []  # nobody has min_laps yet
    assert builder.num_cars > 0
    with pytest.raises(ValueError, match="increasing order"):
        builder.observe_lap(3, [])


def test_gap_in_a_cars_records_is_rejected():
    """A retired car cannot rejoin: array position must stay == lap position."""
    builder = LiveFeatureBuilder()
    row = {"car_id": 1, "rank": 1, "lap_time": 90.0, "time_behind_leader": 0.0,
           "pit": False, "caution": False}
    builder.observe_lap(1, [row])
    builder.observe_lap(2, [])       # car 1 misses lap 2 -> retired
    with pytest.raises(ValueError, match="gap in car 1"):
        builder.observe_lap(3, [row])
    # a genuinely new car may still join mid-race
    builder.observe_lap(4, [{**row, "car_id": 2}])


def test_missing_record_field_is_an_error():
    builder = LiveFeatureBuilder()
    with pytest.raises(ValueError, match="rank"):
        builder.observe_lap(1, [{"car_id": 1, "lap_time": 90.0}])


def test_series_matches_batch_build_at_every_lap_and_never_changes():
    """Every lap's ``series()`` equals ``build_race_features`` over the race
    so far, and an array handed out once stays as it was while later laps
    back-fill the shift features (the race has pit stops and cautions, so
    the back-filled values differ from the fill)."""
    track = replace(track_for_year("Indy500", 2018), total_laps=80, num_cars=8)
    race = RaceSimulator(track, event="Indy500", year=2018, seed=3).run()
    assert any(s.covariates[:, -3:].any() for s in build_race_features(race))
    builder = _builder_for(race)
    handed_out = []
    for lap, records in race.iter_laps():
        builder.observe_lap(lap, records)
        series = builder.series()
        _assert_series_equal(series, build_race_features(_truncated(race, lap)))
        assert all(a.flags.owndata for s in series for a in _arrays(s))  # fresh, not views
        handed_out.append([(s, [a.copy() for a in _arrays(s)]) for s in series])
    for snapshot in handed_out:
        for s, copies in snapshot:
            for array, copy in zip(_arrays(s), copies):
                assert array.tobytes() == copy.tobytes()


def test_columns_grow_past_their_initial_capacity():
    """A feed longer than the columns' first capacity still equals the
    batch build, at the end and at a lap right after a growth."""
    track = replace(track_for_year("Indy500", 2018), total_laps=140, num_cars=4)
    long_race = RaceSimulator(track, event="Indy500", year=2018, seed=5).run()
    builder = _builder_for(long_race)
    for lap, records in long_race.iter_laps():
        builder.observe_lap(lap, records)
        if lap == 70:
            _assert_series_equal(builder.series(), build_race_features(_truncated(long_race, lap)))
    _assert_series_equal(builder.series(), build_race_features(long_race))


def _arrays(s):
    return (s.laps, s.rank, s.lap_time, s.time_behind_leader, s.covariates)
