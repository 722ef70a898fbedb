"""Per-car feature engineering (Table I plus the Fig. 7 context/shift features).

The entry point is :func:`build_race_features`, which converts one
:class:`repro.simulation.RaceTelemetry` into a list of
:class:`CarFeatureSeries` — one aligned set of target and covariate arrays
per car.  All transformations are pure NumPy on lap-indexed arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..simulation.telemetry import CarLaps, RaceTelemetry
from .schema import ALL_COVARIATES

__all__ = [
    "CarFeatureSeries",
    "DEFAULT_MIN_LAPS",
    "DEFAULT_SHIFT_LAG",
    "LiveFeatureBuilder",
    "accumulate_age",
    "caution_laps_since_pit",
    "leader_pit_count",
    "total_pit_count",
    "shift_forward",
    "build_car_features",
    "build_race_features",
]

#: cars with fewer laps than this are dropped from a race's feature set
DEFAULT_MIN_LAPS = 10

#: how far the Fig. 7 "shift features" look ahead — also the number of laps
#: a live session must hold back before an origin's covariates are final
DEFAULT_SHIFT_LAG = 2


@dataclass
class CarFeatureSeries:
    """Aligned per-lap arrays for one car in one race."""

    race_id: str
    event: str
    year: int
    car_id: int
    laps: np.ndarray
    rank: np.ndarray
    lap_time: np.ndarray
    time_behind_leader: np.ndarray
    covariates: np.ndarray  # (num_laps, len(ALL_COVARIATES))

    def __len__(self) -> int:
        return int(self.laps.size)

    def covariate(self, name: str) -> np.ndarray:
        return self.covariates[:, ALL_COVARIATES.index(name)]

    @property
    def is_pit(self) -> np.ndarray:
        return self.covariate("lap_status") > 0.5

    @property
    def is_caution(self) -> np.ndarray:
        return self.covariate("track_status") > 0.5


# ----------------------------------------------------------------------
# elementary transforms
# ----------------------------------------------------------------------
def accumulate_age(pit_flags: np.ndarray) -> np.ndarray:
    """Laps since the previous pit stop (``PitAge`` in Table I).

    The counter is 0 on the pit lap itself and increases by one on every
    following lap; before the first stop it counts laps since the start.
    """
    pit_flags = np.asarray(pit_flags, dtype=bool)
    age = np.zeros(pit_flags.size, dtype=np.float64)
    counter = 0.0
    for i, is_pit in enumerate(pit_flags):
        if is_pit:
            counter = 0.0
        age[i] = counter
        counter += 1.0
    return age


def caution_laps_since_pit(pit_flags: np.ndarray, caution_flags: np.ndarray) -> np.ndarray:
    """Count of caution laps since the car's last pit stop (``CautionLaps``)."""
    pit_flags = np.asarray(pit_flags, dtype=bool)
    caution_flags = np.asarray(caution_flags, dtype=bool)
    if pit_flags.shape != caution_flags.shape:
        raise ValueError("pit and caution flags must have the same shape")
    out = np.zeros(pit_flags.size, dtype=np.float64)
    counter = 0.0
    for i in range(pit_flags.size):
        if pit_flags[i]:
            counter = 0.0
        out[i] = counter
        if caution_flags[i]:
            counter += 1.0
    return out


def total_pit_count(race: RaceTelemetry) -> Dict[int, float]:
    """Number of cars pitting on each lap (``TotalPitCount``)."""
    counts: Dict[int, float] = {}
    for lap in np.unique(race.lap):
        mask = race.lap == lap
        counts[int(lap)] = float(np.count_nonzero(race.is_pit[mask]))
    return counts


def leader_pit_count(race: RaceTelemetry, lookback: int = 2, top_k: int = 10) -> Dict[int, float]:
    """Number of *leading* cars pitting on each lap (``LeaderPitCount``).

    "Leading" is judged by the rank position ``lookback`` laps earlier
    (Fig. 7 step 3 uses lap A-2), restricted to the top ``top_k`` cars.
    """
    counts: Dict[int, float] = {}
    for lap in np.unique(race.lap):
        lap = int(lap)
        ref_lap = lap - lookback
        mask = race.lap == lap
        pitting = set(race.car_id[mask][race.is_pit[mask]].tolist())
        if not pitting or ref_lap < 1:
            counts[lap] = 0.0
            continue
        ranks_ref = race.ranks_at_lap(ref_lap)
        leaders = {car for car, rank in ranks_ref.items() if rank <= top_k}
        counts[lap] = float(len(pitting & leaders))
    return counts


def shift_forward(values: np.ndarray, lag: int, fill: float = 0.0) -> np.ndarray:
    """Shift a series so position ``i`` holds the value at ``i + lag``.

    Used for the "shift features" of Fig. 7 step 4 (e.g. the race status two
    laps into the future); the tail is padded with ``fill``.
    """
    values = np.asarray(values, dtype=np.float64)
    if lag < 0:
        raise ValueError("lag must be non-negative")
    if lag == 0:
        return values.copy()
    out = np.full(values.shape, fill, dtype=np.float64)
    if lag < values.size:
        out[:-lag] = values[lag:]
    return out


# ----------------------------------------------------------------------
# per-car / per-race builders
# ----------------------------------------------------------------------
def build_car_features(
    race: RaceTelemetry,
    car_laps: CarLaps,
    total_pits: Optional[Dict[int, float]] = None,
    leader_pits: Optional[Dict[int, float]] = None,
    shift_lag: int = DEFAULT_SHIFT_LAG,
) -> CarFeatureSeries:
    """Build the full covariate matrix for one car."""
    total_pits = total_pits if total_pits is not None else total_pit_count(race)
    leader_pits = leader_pits if leader_pits is not None else leader_pit_count(race)

    pit = car_laps.is_pit.astype(np.float64)
    caution = car_laps.is_caution.astype(np.float64)
    pit_age = accumulate_age(car_laps.is_pit)
    caution_laps = caution_laps_since_pit(car_laps.is_pit, car_laps.is_caution)
    tp = np.array([total_pits.get(int(lap), 0.0) for lap in car_laps.laps])
    lp = np.array([leader_pits.get(int(lap), 0.0) for lap in car_laps.laps])

    columns = {
        "track_status": caution,
        "lap_status": pit,
        "caution_laps": caution_laps,
        "pit_age": pit_age,
        "leader_pit_count": lp,
        "total_pit_count": tp,
        "shift_track_status": shift_forward(caution, shift_lag),
        "shift_lap_status": shift_forward(pit, shift_lag),
        "shift_total_pit_count": shift_forward(tp, shift_lag),
    }
    covariates = np.column_stack([columns[name] for name in ALL_COVARIATES])
    return CarFeatureSeries(
        race_id=race.race_id,
        event=race.event,
        year=race.year,
        car_id=car_laps.car_id,
        laps=car_laps.laps.astype(np.int64),
        rank=car_laps.rank.astype(np.float64),
        lap_time=car_laps.lap_time.astype(np.float64),
        time_behind_leader=car_laps.time_behind_leader.astype(np.float64),
        covariates=covariates,
    )


def build_race_features(
    race: RaceTelemetry, shift_lag: int = DEFAULT_SHIFT_LAG, min_laps: int = DEFAULT_MIN_LAPS
) -> List[CarFeatureSeries]:
    """Feature series for every car in a race with at least ``min_laps`` laps."""
    total_pits = total_pit_count(race)
    leader_pits = leader_pit_count(race)
    series = []
    for car in race.car_ids():
        cl = race.car_laps(car)
        if len(cl) < min_laps:
            continue
        series.append(
            build_car_features(
                race, cl, total_pits=total_pits, leader_pits=leader_pits, shift_lag=shift_lag
            )
        )
    return series


# ----------------------------------------------------------------------
# streaming (lap-by-lap) feature building
# ----------------------------------------------------------------------
def _record_field(record, *names, default=None):
    """Read one field from a lap record given as a mapping or an object."""
    for name in names:
        if isinstance(record, dict):
            if name in record:
                return record[name]
        elif hasattr(record, name):
            return getattr(record, name)
    if default is not None:
        return default
    raise ValueError(f"lap record is missing {names[0]!r} (tried {names})")


def _record_flag(record, canonical: str, status_field: str, status_true: str) -> bool:
    """Boolean pit/caution flag, accepting bools or the textual log status."""
    value = _record_field(record, f"is_{canonical}", canonical, status_field, default="")
    if isinstance(value, str):
        return value == status_true
    return bool(value)


#: (shift feature, the feature it shifts) pairs of Fig. 7 step 4
_SHIFT_PAIRS = (
    ("shift_track_status", "track_status"),
    ("shift_lap_status", "lap_status"),
    ("shift_total_pit_count", "total_pit_count"),
)
_SHIFTED = [ALL_COVARIATES.index(shifted) for shifted, _ in _SHIFT_PAIRS]


class _LiveCarState:
    """One car's growing NumPy columns plus the running feature counters.

    The columns — laps, the three targets and the covariate matrix in
    :data:`ALL_COVARIATES` order — double their capacity when full, so a
    lap costs one row write (and the in-place shift back-fill), and
    :meth:`series` copies the leading ``n`` rows out.
    """

    __slots__ = (
        "n", "laps", "rank", "lap_time", "time_behind_leader", "covariates",
        "_age_counter", "_caution_counter",
    )

    def __init__(self, capacity: int = 64) -> None:
        self.n = 0
        self.laps = np.empty(capacity, dtype=np.int64)
        self.rank = np.empty(capacity, dtype=np.float64)
        self.lap_time = np.empty(capacity, dtype=np.float64)
        self.time_behind_leader = np.empty(capacity, dtype=np.float64)
        self.covariates = np.empty((capacity, len(ALL_COVARIATES)), dtype=np.float64)
        self._age_counter = 0.0
        self._caution_counter = 0.0

    @property
    def last_lap(self) -> int:
        return int(self.laps[self.n - 1])

    def _grow(self) -> None:
        for name in ("laps", "rank", "lap_time", "time_behind_leader", "covariates"):
            old = getattr(self, name)
            new = np.empty((2 * len(old),) + old.shape[1:], dtype=old.dtype)
            new[: self.n] = old[: self.n]
            setattr(self, name, new)

    def append(self, lap, record, tp, lp, shift_lag, shift_fill) -> None:
        pit = 1.0 if _record_flag(record, "pit", "lap_status", "P") else 0.0
        caution = 1.0 if _record_flag(record, "caution", "track_status", "Y") else 0.0
        rank = float(_record_field(record, "rank"))
        lap_time = float(_record_field(record, "lap_time"))
        behind = float(_record_field(record, "time_behind_leader"))
        k = self.n
        if k == len(self.laps):
            self._grow()
        self.laps[k] = lap
        self.rank[k] = rank
        self.lap_time[k] = lap_time
        self.time_behind_leader[k] = behind
        # the same counter arithmetic as accumulate_age / caution_laps_since_pit
        if pit:
            self._age_counter = 0.0
            self._caution_counter = 0.0
        row = {
            "track_status": caution,
            "lap_status": pit,
            "caution_laps": self._caution_counter,
            "pit_age": self._age_counter,
            "leader_pit_count": lp,
            "total_pit_count": tp,
        }
        # shift features hold the value ``shift_lag`` positions ahead: pad the
        # new tail position with the fill, back-fill the one it finalises
        for shifted, source in _SHIFT_PAIRS:
            row[shifted] = shift_fill if shift_lag else row[source]
        self.covariates[k] = [row[name] for name in ALL_COVARIATES]
        if shift_lag and k >= shift_lag:
            self.covariates[k - shift_lag, _SHIFTED] = [row[source] for _, source in _SHIFT_PAIRS]
        self._age_counter += 1.0
        if caution:
            self._caution_counter += 1.0
        self.n = k + 1


class LiveFeatureBuilder:
    """Incremental :func:`build_race_features` over a streamed timing feed.

    Laps are observed in increasing order (:meth:`observe_lap`), one batch
    of per-car records per lap; :meth:`series` materialises the same
    :class:`CarFeatureSeries` list :func:`build_race_features` would build
    from the telemetry observed so far — byte-identical, including the
    cross-car features (``TotalPitCount``, ``LeaderPitCount``) and the
    forward-shift features of Fig. 7.  Because a shift feature at position
    ``k`` holds the value at ``k + shift_lag``, every entry at positions
    ``<= latest - shift_lag`` is *final*: it will never change as more laps
    arrive, which is what lets a live session forecast origin ``O`` as soon
    as lap ``O + 1 + shift_lag`` has been observed and still match a
    whole-race replay bit for bit.

    Records are duck-typed: :class:`~repro.simulation.telemetry.LapRecord`
    objects, plain dicts from the wire protocol (``car_id``, ``rank``,
    ``lap_time``, ``time_behind_leader``, ``pit``/``is_pit``,
    ``caution``/``is_caution``), or the textual log statuses
    (``lap_status``/``track_status``) are all accepted.
    """

    def __init__(
        self,
        race_id: str = "live",
        event: str = "live",
        year: int = 0,
        shift_lag: int = DEFAULT_SHIFT_LAG,
        min_laps: int = DEFAULT_MIN_LAPS,
        leader_lookback: int = 2,
        leader_top_k: int = 10,
        shift_fill: float = 0.0,
    ) -> None:
        self.race_id = str(race_id)
        self.event = str(event)
        self.year = int(year)
        self.shift_lag = int(shift_lag)
        self.min_laps = int(min_laps)
        self.leader_lookback = int(leader_lookback)
        self.leader_top_k = int(leader_top_k)
        self.shift_fill = float(shift_fill)
        self.latest_lap = 0
        self._cars: Dict[int, _LiveCarState] = {}
        self._ranks_at: Dict[int, Dict[int, int]] = {}
        self._series_cache: Optional[List[CarFeatureSeries]] = None

    def observe_lap(self, lap: int, records) -> None:
        """Ingest every car's record for one lap (laps strictly increasing).

        A car's records must be contiguous: once a car misses a lap it is
        considered retired and may not reappear.  This is what keeps a
        car's array position equal to its lap position — the alignment the
        whole feature pipeline (and the origin indexing of the
        forecasters) relies on; a feed with a mid-race gap would otherwise
        silently forecast from misaligned, non-final covariates.
        """
        lap = int(lap)
        if lap <= self.latest_lap:
            raise ValueError(
                f"laps must arrive in increasing order: got lap {lap} after "
                f"lap {self.latest_lap}"
            )
        records = list(records)
        ranks: Dict[int, int] = {}
        pitting = set()
        for record in records:
            car = int(_record_field(record, "car_id"))
            state = self._cars.get(car)
            if state is not None and state.last_lap != lap - 1:
                raise ValueError(
                    f"gap in car {car}'s lap records: last saw lap "
                    f"{state.last_lap}, got lap {lap}; a car that misses a "
                    "lap is retired and cannot rejoin the feed"
                )
            ranks[car] = int(_record_field(record, "rank"))
            if _record_flag(record, "pit", "lap_status", "P"):
                pitting.add(car)
        # cross-car per-lap features, same arithmetic as total_pit_count /
        # leader_pit_count over a complete race
        tp = float(len(pitting))
        ref_lap = lap - self.leader_lookback
        if not pitting or ref_lap < 1:
            lp = 0.0
        else:
            reference = self._ranks_at.get(ref_lap, {})
            leaders = {car for car, rank in reference.items() if rank <= self.leader_top_k}
            lp = float(len(pitting & leaders))
        for record in records:
            car = int(_record_field(record, "car_id"))
            state = self._cars.get(car)
            if state is None:
                state = self._cars[car] = _LiveCarState()
            state.append(lap, record, tp, lp, self.shift_lag, self.shift_fill)
        self._ranks_at[lap] = ranks
        self.latest_lap = lap
        self._series_cache = None

    @property
    def num_cars(self) -> int:
        return len(self._cars)

    def series(self) -> List[CarFeatureSeries]:
        """The feature series of every car observed for >= ``min_laps`` laps.

        Every array is a fresh copy of the builder's columns, so a
        returned series never changes as later laps arrive; the list is
        cached until the next observed lap, so repeated reads between laps
        (a multi-origin drain, an external monitor) cost nothing.
        """
        if self._series_cache is not None:
            return self._series_cache
        out = []
        for car in sorted(self._cars):
            state = self._cars[car]
            n = state.n
            if n < self.min_laps:
                continue
            out.append(
                CarFeatureSeries(
                    race_id=self.race_id,
                    event=self.event,
                    year=self.year,
                    car_id=car,
                    laps=state.laps[:n].copy(),
                    rank=state.rank[:n].copy(),
                    lap_time=state.lap_time[:n].copy(),
                    time_behind_leader=state.time_behind_leader[:n].copy(),
                    covariates=state.covariates[:n].copy(),
                )
            )
        self._series_cache = out
        return out
