"""Stochastic IndyCar race simulator.

This sub-package replaces the proprietary IndyCar timing & scoring telemetry
used by the paper (see DESIGN.md §2 for the substitution rationale).  It
produces per-lap records with exactly the columns of Fig. 1(a) — rank, lap
time, time behind leader, lap status (pit) and track status (caution) — with
the causal structure the forecasting models must learn: fuel-window-bounded
stints, opportunistic caution pits, field compression under yellow flags and
pit-stop-driven rank changes.
"""

from .caution import CautionEvent, CautionGenerator
from .driver import DriverProfile, generate_field
from .pit import PitDecision, PitStrategy
from .race import RaceSimulator, simulate_race
from .season import (
    DatasetSplit,
    RacingDataset,
    TEST_YEARS,
    VALIDATION_YEARS,
    generate_dataset,
    generate_event_dataset,
)
from .telemetry import CarLaps, LapRecord, RaceTelemetry
from .track import EVENT_YEARS, TRACKS, TrackSpec, list_events, track_for_year


__all__ = [
    "CautionEvent",
    "CautionGenerator",
    "DriverProfile",
    "generate_field",
    "PitDecision",
    "PitStrategy",
    "RaceSimulator",
    "simulate_race",
    "DatasetSplit",
    "RacingDataset",
    "TEST_YEARS",
    "VALIDATION_YEARS",
    "generate_dataset",
    "generate_event_dataset",
    "CarLaps",
    "LapRecord",
    "RaceTelemetry",
    "EVENT_YEARS",
    "TRACKS",
    "TrackSpec",
    "list_events",
    "track_for_year",
]
