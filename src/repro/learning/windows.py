"""Telemetry accumulation into versioned, fingerprinted training windows.

The :class:`TelemetryAccumulator` is the ingest side of the continuous-
learning loop.  Races arrive from three directions — offline
:class:`~repro.simulation.telemetry.RaceTelemetry` files, freshly simulated
races, and the lap logs of completed live serving sessions
(:attr:`repro.serving.sessions.RaceSession.lap_log`) — and land in one
directory::

    <root>/
        index.json             # schema, races in arrival order, built windows
        races/<key>.npz        # one telemetry checkpoint per ingested race

Every race is keyed by ``<race_id>-<content fingerprint>``: re-ingesting
the same race (a retried drain, the same file added twice) is a no-op, and
two different runnings of the same event never collide.  The fingerprint is
:func:`repro.artifacts.fingerprint_series` over the race's feature series —
the same function that keys the artifact cache — so a training window's
fingerprint composes directly into the candidate artifact's
``data_fingerprint``.

A :class:`TrainingWindow` is an immutable view over the accumulated races:
all-but-the-last ``holdout`` races (in arrival order) train the candidate,
the most recent ``holdout`` races are held out for shadow evaluation.
Windows are registered in the index under a content-derived id, so the
retrain CLI can name a window across processes and a window id never means
two different datasets.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..artifacts import fingerprint_series
from ..data.features import build_race_features
from ..simulation.telemetry import LapRecord, RaceTelemetry
from ..simulation.track import TrackSpec, track_for_year

__all__ = ["TelemetryAccumulator", "TrainingWindow"]


def _lap_record_from_wire(document: dict, elapsed_time: float) -> LapRecord:
    """One wire-form lap record -> data-layer record.

    Wire lap records (``repro.serving.wire.lap_record_to_wire``) carry no
    ``lap`` or ``elapsed_time`` — the lap number travels on the envelope
    and the cumulative time is reconstructed by the caller's per-car
    running sum of lap times.
    """
    return LapRecord(
        car_id=int(document["car_id"]),
        lap=0,  # patched by the caller, which knows the envelope lap
        rank=int(document["rank"]),
        lap_time=float(document["lap_time"]),
        elapsed_time=float(elapsed_time),
        time_behind_leader=float(document["time_behind_leader"]),
        is_pit=bool(document.get("pit", False)),
        is_caution=bool(document.get("caution", False)),
    )


def records_from_lap_log(lap_log: Sequence[Tuple[int, Sequence]]) -> List[LapRecord]:
    """Flatten a session's ``(lap, records)`` log into data-layer records.

    Accepts both record forms a :class:`~repro.serving.sessions.RaceSession`
    may have observed: raw :class:`LapRecord` objects (in-process feeds) and
    wire dictionaries (HTTP/worker feeds).  Wire records carry no elapsed
    time, so it is reconstructed as each car's running sum of lap times —
    exactly how the simulator accumulates it on the way out.
    """
    records: List[LapRecord] = []
    elapsed: Dict[int, float] = {}
    for lap, lap_records in sorted(lap_log, key=lambda item: int(item[0])):
        for record in lap_records:
            if isinstance(record, LapRecord):
                records.append(
                    record if record.lap == int(lap) else LapRecord(
                        car_id=record.car_id,
                        lap=int(lap),
                        rank=record.rank,
                        lap_time=record.lap_time,
                        elapsed_time=record.elapsed_time,
                        time_behind_leader=record.time_behind_leader,
                        is_pit=record.is_pit,
                        is_caution=record.is_caution,
                    )
                )
                continue
            car_id = int(record["car_id"])
            elapsed[car_id] = elapsed.get(car_id, 0.0) + float(record["lap_time"])
            wire_record = _lap_record_from_wire(record, elapsed[car_id])
            records.append(
                LapRecord(
                    car_id=wire_record.car_id,
                    lap=int(lap),
                    rank=wire_record.rank,
                    lap_time=wire_record.lap_time,
                    elapsed_time=wire_record.elapsed_time,
                    time_behind_leader=wire_record.time_behind_leader,
                    is_pit=wire_record.is_pit,
                    is_caution=wire_record.is_caution,
                )
            )
    return records


def _refuse_non_finite(telemetry: RaceTelemetry) -> None:
    """Raise ``ValueError`` naming the first record with a NaN/inf lap value."""
    for name in ("lap_time", "elapsed_time", "time_behind_leader"):
        values = getattr(telemetry, name)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"race {telemetry.race_id!r}, car {int(telemetry.car_id[i])}, "
                f"lap {int(telemetry.lap[i])}: non-finite {name} ({values[i]}); "
                "refusing to accumulate the race"
            )


def _generic_track(event: str, num_laps: int, num_cars: int) -> TrackSpec:
    """A placeholder spec for events with no catalogued track geometry."""
    return TrackSpec(
        name=event,
        length_miles=2.5,
        shape="oval",
        total_laps=max(int(num_laps), 1),
        avg_speed_mph=220.0,
        num_cars=max(int(num_cars), 1),
        pit_lane_loss_s=45.0,
    )


@dataclass
class TrainingWindow:
    """An immutable train/holdout split over accumulated races."""

    window_id: str
    fingerprint: str
    train_keys: List[str]
    holdout_keys: List[str]
    accumulator: "TelemetryAccumulator" = field(repr=False)

    def train_races(self) -> List[RaceTelemetry]:
        return [self.accumulator.race(key) for key in self.train_keys]

    def holdout_races(self) -> List[RaceTelemetry]:
        return [self.accumulator.race(key) for key in self.holdout_keys]

    def train_series(self) -> List:
        """Feature series of every training race, flattened in race order."""
        series = []
        for race in self.train_races():
            series.extend(build_race_features(race))
        return series

    def holdout_series(self) -> List:
        series = []
        for race in self.holdout_races():
            series.extend(build_race_features(race))
        return series

    def describe(self) -> dict:
        return {
            "window": self.window_id,
            "fingerprint": self.fingerprint,
            "train_races": list(self.train_keys),
            "holdout_races": list(self.holdout_keys),
        }


class TelemetryAccumulator:
    """Directory-backed ingest of races into fingerprinted windows."""

    INDEX_NAME = "index.json"
    INDEX_SCHEMA_VERSION = 1

    def __init__(self, root: str) -> None:
        self.root = str(root)
        os.makedirs(os.path.join(self.root, "races"), exist_ok=True)
        self._index: dict = {"races": {}, "windows": {}}
        self._read_index()

    # ------------------------------------------------------------------
    # index bookkeeping
    # ------------------------------------------------------------------
    @property
    def index_path(self) -> str:
        return os.path.join(self.root, self.INDEX_NAME)

    def _read_index(self) -> None:
        if not os.path.exists(self.index_path):
            return
        with open(self.index_path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
        version = int(document.get("schema_version", 0))
        if version > self.INDEX_SCHEMA_VERSION:
            raise ValueError(
                f"accumulator index schema version {version} is newer than "
                f"supported version {self.INDEX_SCHEMA_VERSION}"
            )
        self._index = {
            "races": dict(document.get("races", {})),
            "windows": dict(document.get("windows", {})),
        }

    def _write_index(self) -> None:
        document = {"schema_version": self.INDEX_SCHEMA_VERSION, **self._index}
        tmp_path = self.index_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
        os.replace(tmp_path, self.index_path)

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def add_race(self, telemetry: RaceTelemetry, source: str = "offline") -> dict:
        """Register one race; re-adding identical content is a no-op.

        Returns the index entry (with its ``key`` and ``new`` flag).  The
        dedup key combines the race id with the content fingerprint, so a
        retried session drain never double-counts a race while two distinct
        runnings of the same event stay distinct.  A race with a NaN or
        infinite lap time, elapsed time or gap is refused (``ValueError``).
        """
        _refuse_non_finite(telemetry)
        fingerprint = fingerprint_series(build_race_features(telemetry))
        key = f"{telemetry.race_id}-{fingerprint}"
        existing = self._index["races"].get(key)
        if existing is not None:
            return {"key": key, "new": False, **existing}
        file_name = f"{key}.npz"
        telemetry.save(os.path.join(self.root, "races", file_name))
        entry = {
            "file": file_name,
            "event": telemetry.event,
            "year": telemetry.year,
            "laps": telemetry.num_laps,
            "cars": len(telemetry.car_ids()),
            "records": len(telemetry),
            "fingerprint": fingerprint,
            "source": str(source),
            "added_at": time.time(),
        }
        self._index["races"][key] = entry
        self._write_index()
        return {"key": key, "new": True, **entry}

    def add_file(self, path: str) -> dict:
        """Ingest an on-disk telemetry file (npz checkpoint or textual log)."""
        return self.add_race(RaceTelemetry.load(path), source=os.path.abspath(path))

    def add_session(
        self,
        lap_log: Sequence[Tuple[int, Sequence]],
        event: str,
        year: int,
        track: Optional[TrackSpec] = None,
        source: str = "session",
    ) -> dict:
        """Drain one completed live session's lap log into the accumulator.

        ``lap_log`` is what :class:`~repro.serving.sessions.RaceSession`
        retained (``session.lap_log``); records may be wire dictionaries or
        raw :class:`LapRecord` objects.  Events without a catalogued track
        get a generic :class:`TrackSpec` sized to the observed field.
        """
        records = records_from_lap_log(lap_log)
        if not records:
            raise ValueError("session lap log is empty; nothing to accumulate")
        if track is None:
            try:
                track = track_for_year(event, int(year))
            except (KeyError, ValueError):
                num_laps = max(r.lap for r in records)
                num_cars = len({r.car_id for r in records})
                track = _generic_track(event, num_laps, num_cars)
        race = RaceTelemetry(event=event, year=int(year), track=track, records=records)
        return self.add_race(race, source=source)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def race_keys(self) -> List[str]:
        """Ingested race keys in arrival order."""
        return list(self._index["races"])

    def races(self) -> Dict[str, dict]:
        return {key: dict(entry) for key, entry in self._index["races"].items()}

    def race(self, key: str) -> RaceTelemetry:
        entry = self._index["races"].get(key)
        if entry is None:
            raise KeyError(f"race {key!r} is not in the accumulator at {self.root}")
        return RaceTelemetry.load(os.path.join(self.root, "races", entry["file"]))

    def __len__(self) -> int:
        return len(self._index["races"])

    # ------------------------------------------------------------------
    # windows
    # ------------------------------------------------------------------
    def build_window(self, holdout: int = 1) -> TrainingWindow:
        """Split the accumulated races into a registered training window.

        The most recent ``holdout`` races (arrival order) are held out for
        shadow evaluation; everything earlier trains the candidate.  The
        window id derives from the member races' content fingerprints, so
        building the same window twice returns the same id and a window id
        can never silently mean different data.
        """
        holdout = int(holdout)
        if holdout < 1:
            raise ValueError("holdout must be >= 1 (shadow eval needs held-out races)")
        keys = self.race_keys()
        if len(keys) <= holdout:
            raise ValueError(
                f"need more than {holdout} accumulated race(s) to hold {holdout} "
                f"out; have {len(keys)}"
            )
        train_keys = keys[:-holdout]
        holdout_keys = keys[-holdout:]
        digest = hashlib.sha256()
        for key in keys:
            digest.update(self._index["races"][key]["fingerprint"].encode())
            digest.update(b"|")
        digest.update(f"holdout={holdout}".encode())
        fingerprint = digest.hexdigest()[:12]
        window_id = f"win-{fingerprint}"
        if window_id not in self._index["windows"]:
            self._index["windows"][window_id] = {
                "fingerprint": fingerprint,
                "train": train_keys,
                "holdout": holdout_keys,
                "built_at": time.time(),
            }
            self._write_index()
        return TrainingWindow(
            window_id=window_id,
            fingerprint=fingerprint,
            train_keys=train_keys,
            holdout_keys=holdout_keys,
            accumulator=self,
        )

    def windows(self) -> Dict[str, dict]:
        return {wid: dict(entry) for wid, entry in self._index["windows"].items()}

    def window(self, window_id: str) -> TrainingWindow:
        """Reload a registered window by id (cross-process handoff)."""
        entry = self._index["windows"].get(window_id)
        if entry is None:
            raise KeyError(
                f"window {window_id!r} is not registered in the accumulator at "
                f"{self.root}"
            )
        return TrainingWindow(
            window_id=window_id,
            fingerprint=entry["fingerprint"],
            train_keys=list(entry["train"]),
            holdout_keys=list(entry["holdout"]),
            accumulator=self,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"TelemetryAccumulator(root={self.root!r}, races={len(self)}, "
            f"windows={len(self._index['windows'])})"
        )
