"""Stint extraction and pit-stop statistics.

A *stint* is the run of laps between two consecutive pit stops.  Stints
drive two parts of the reproduction:

* the pit-stop analysis of Fig. 4 (stint-distance distributions / CDF,
  where pits happen, how much rank is lost at normal vs. caution pits);
* TaskB — forecasting the change of rank position between two consecutive
  pit stops (Table VI) — whose ground-truth targets come from
  :func:`stint_rank_changes`;
* the PitModel training set (``laps until the next pit stop`` given the
  race-status features at the current lap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .features import CarFeatureSeries

__all__ = [
    "Stint",
    "extract_stints",
    "stint_rank_changes",
    "pit_statistics",
    "next_pit_targets",
]


@dataclass(frozen=True)
class Stint:
    """Laps between two consecutive pit stops of one car."""

    race_id: str
    car_id: int
    start_index: int          # index (into the car's lap arrays) right after the previous pit
    end_index: int            # index of the pit lap that ends the stint
    length: int               # number of laps in the stint
    ends_under_caution: bool  # the closing pit stop happened on a caution lap
    rank_at_start: int
    rank_at_end: int
    rank_after_pit: Optional[int]  # rank a couple of laps after the stop (None near race end)

    @property
    def rank_change(self) -> int:
        """Rank change across the stint (negative = positions gained)."""
        return int(self.rank_at_end - self.rank_at_start)


def extract_stints(series: CarFeatureSeries, settle_laps: int = 3) -> List[Stint]:
    """Split one car's race into stints ending at each pit stop."""
    pit_idx = np.where(series.is_pit)[0]
    stints: List[Stint] = []
    prev_end = -1
    for idx in pit_idx:
        start = prev_end + 1
        if idx <= start:
            prev_end = idx
            continue
        after = idx + settle_laps
        rank_after = int(series.rank[after]) if after < len(series) else None
        stints.append(
            Stint(
                race_id=series.race_id,
                car_id=series.car_id,
                start_index=start,
                end_index=int(idx),
                length=int(idx - start),
                ends_under_caution=bool(series.is_caution[idx]),
                rank_at_start=int(series.rank[start]),
                rank_at_end=int(series.rank[idx]),
                rank_after_pit=rank_after,
            )
        )
        prev_end = int(idx)
    return stints


def stint_rank_changes(
    all_series: Sequence[CarFeatureSeries], settle_laps: int = 3
) -> List[Stint]:
    """All stints of a collection of cars (TaskB population)."""
    stints: List[Stint] = []
    for series in all_series:
        stints.extend(extract_stints(series, settle_laps=settle_laps))
    return stints


def pit_statistics(all_series: Sequence[CarFeatureSeries]) -> dict:
    """Aggregate pit-stop statistics reproducing the panels of Fig. 4.

    Returns a dict with, separately for normal pits and caution pits:
    stint-length samples, the laps on which the pits occurred and the rank
    change caused by the stop (rank a few laps after the stop minus rank
    just before it).
    """
    normal_stints: List[int] = []
    caution_stints: List[int] = []
    normal_pit_laps: List[int] = []
    caution_pit_laps: List[int] = []
    normal_rank_changes: List[int] = []
    caution_rank_changes: List[int] = []
    for series in all_series:
        for stint in extract_stints(series):
            pit_lap = int(series.laps[stint.end_index])
            # rank cost of the stop: position a few laps after the stop vs the
            # position on the lap just before entering the pit lane
            before_idx = max(stint.end_index - 1, 0)
            before = int(series.rank[before_idx])
            after = stint.rank_after_pit
            change = None if after is None else int(after - before)
            if stint.ends_under_caution:
                caution_stints.append(stint.length)
                caution_pit_laps.append(pit_lap)
                if change is not None:
                    caution_rank_changes.append(change)
            else:
                normal_stints.append(stint.length)
                normal_pit_laps.append(pit_lap)
                if change is not None:
                    normal_rank_changes.append(change)
    return {
        "normal": {
            "stint_lengths": np.array(normal_stints, dtype=np.int64),
            "pit_laps": np.array(normal_pit_laps, dtype=np.int64),
            "rank_changes": np.array(normal_rank_changes, dtype=np.int64),
        },
        "caution": {
            "stint_lengths": np.array(caution_stints, dtype=np.int64),
            "pit_laps": np.array(caution_pit_laps, dtype=np.int64),
            "rank_changes": np.array(caution_rank_changes, dtype=np.int64),
        },
    }


def next_pit_targets(
    series: CarFeatureSeries, max_horizon: int = 60
) -> List[dict]:
    """PitModel training instances for one car.

    For every lap before the car's final stop, the target is the number of
    laps until the next pit stop strictly after it (clipped to
    ``max_horizon``).  Pit laps are kept: a pit lap's target is the
    distance to the following stop.  Laps from the final stop on (no later
    pit observed) are skipped, and a car that never pits yields no
    instance.  Features are the pit-stop-related covariates of Table I.
    """
    pit_positions = np.where(series.is_pit)[0]
    instances: List[dict] = []
    if pit_positions.size == 0:
        return instances
    for i in range(len(series)):
        future_pits = pit_positions[pit_positions > i]
        if future_pits.size == 0:
            break
        laps_to_pit = int(future_pits[0] - i)
        if laps_to_pit > max_horizon:
            laps_to_pit = max_horizon
        instances.append(
            {
                "race_id": series.race_id,
                "car_id": series.car_id,
                "lap_index": i,
                "features": np.array(
                    [
                        series.covariate("caution_laps")[i],
                        series.covariate("pit_age")[i],
                        series.covariate("track_status")[i],
                        series.rank[i],
                        series.covariate("total_pit_count")[i],
                    ],
                    dtype=np.float64,
                ),
                "target": float(laps_to_pit),
            }
        )
    return instances
