"""Telemetry accumulator: ingest idempotency, fingerprints, window splits."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.learning import TelemetryAccumulator
from repro.learning.windows import records_from_lap_log
from repro.serving.wire import lap_record_to_wire


def test_ingest_is_idempotent(tmp_path, learn_races):
    acc = TelemetryAccumulator(str(tmp_path / "acc"))
    first = acc.add_race(learn_races[0])
    again = acc.add_race(learn_races[0])
    assert first["new"] is True
    assert again["new"] is False
    assert again["key"] == first["key"]
    assert len(acc) == 1


def test_distinct_runnings_of_the_same_event_do_not_collide(tmp_path, learn_races):
    acc = TelemetryAccumulator(str(tmp_path / "acc"))
    keys = {acc.add_race(race)["key"] for race in learn_races}
    # same event/year, different seeds: the content fingerprint in the key
    # keeps the three runnings distinct
    assert len(keys) == 3


def test_window_split_and_content_derived_id(accumulator, window):
    assert len(window.train_keys) == 2 and len(window.holdout_keys) == 1
    assert window.holdout_keys[0] == accumulator.race_keys()[-1]
    assert window.window_id == f"win-{window.fingerprint}"
    # rebuilding the same split returns the same content-derived id
    assert accumulator.build_window(holdout=1).window_id == window.window_id


def test_window_reloads_identically_in_a_fresh_instance(accumulator, window):
    fresh = TelemetryAccumulator(accumulator.root)
    reloaded = fresh.window(window.window_id)
    assert reloaded.train_keys == window.train_keys
    assert reloaded.holdout_keys == window.holdout_keys
    assert reloaded.fingerprint == window.fingerprint
    assert len(reloaded.holdout_races()) == 1
    assert reloaded.train_series()  # races round-trip through disk


def test_window_needs_more_races_than_the_holdout(tmp_path, learn_races):
    acc = TelemetryAccumulator(str(tmp_path / "acc"))
    acc.add_race(learn_races[0])
    with pytest.raises(ValueError, match="need more than"):
        acc.build_window(holdout=1)
    with pytest.raises(ValueError, match="holdout"):
        acc.build_window(holdout=0)


def test_unknown_window_and_race_keys_raise(accumulator):
    with pytest.raises(KeyError):
        accumulator.window("win-nope")
    with pytest.raises(KeyError):
        accumulator.race("nope")


def test_session_lap_log_drains_to_identical_content(tmp_path, learn_races):
    """Wire-form lap records reconstruct the exact telemetry content.

    A session drained over the wire (no ``lap``/``elapsed_time`` fields on
    the records) must dedup against the same race ingested directly — the
    reconstruction is content-exact, not merely approximate.
    """
    race = learn_races[0]
    lap_log = [
        (lap, [lap_record_to_wire(record) for record in records])
        for lap, records in race.iter_laps()
    ]
    records = records_from_lap_log(lap_log)
    assert len(records) == len(race)

    acc = TelemetryAccumulator(str(tmp_path / "acc"))
    direct = acc.add_race(race)
    drained = acc.add_session(
        lap_log, event=race.event, year=race.year, track=race.track
    )
    assert drained["fingerprint"] == direct["fingerprint"]
    assert drained["key"] == direct["key"]
    assert drained["new"] is False
    assert len(acc) == 1


def test_session_drain_without_a_catalogued_track_gets_a_generic_spec(
    tmp_path, learn_races
):
    race = learn_races[1]
    lap_log = list(race.iter_laps())
    acc = TelemetryAccumulator(str(tmp_path / "acc"))
    entry = acc.add_session(lap_log, event="Backyard-Oval", year=1999)
    assert entry["new"] is True
    assert entry["event"] == "Backyard-Oval"
    assert entry["cars"] == 8


def test_a_race_with_a_non_finite_lap_value_is_refused(tmp_path, learn_races):
    race = copy.copy(learn_races[0])
    race.lap_time = race.lap_time.copy()
    row = 40
    race.lap_time[row] = np.nan
    acc = TelemetryAccumulator(str(tmp_path / "acc"))
    message = f"race '{race.race_id}', car {race.car_id[row]}, lap {race.lap[row]}"
    with pytest.raises(ValueError, match=message):
        acc.add_race(race)
    assert len(acc) == 0


def test_a_session_with_a_non_finite_gap_is_refused(tmp_path, learn_races):
    race = learn_races[0]
    lap_log = [(lap, list(records)) for lap, records in race.iter_laps()]
    lap, records = lap_log[5]
    records[2] = replace(records[2], time_behind_leader=float("inf"))
    acc = TelemetryAccumulator(str(tmp_path / "acc"))
    message = f"race '{race.race_id}', car {records[2].car_id}, lap {lap}"
    with pytest.raises(ValueError, match=message):
        acc.add_session(lap_log, event=race.event, year=race.year, track=race.track)
    assert len(acc) == 0
