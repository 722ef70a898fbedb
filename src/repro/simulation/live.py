"""Live-race forecasting: stream fleet forecasts lap by lap from telemetry.

Couples the race simulator to the serving engine: given a fitted deep
forecaster, the :class:`LiveRaceForecaster` answers the per-origin question
(:meth:`forecast_at` — the whole field as one fleet batch) and replays a
finished race as a timing feed (:meth:`stream`).  It runs the engine in
``carry`` mode — between consecutive laps each car's warm-up state is
advanced by exactly one observed lap instead of replaying the whole
history window, which is what a real-time timing-feed deployment would do.

Since the serving API grew server-side sessions, :meth:`stream` is a thin
replay harness over the shared session core
(:class:`repro.serving.sessions.RaceSession`): the race's lap records are
fed one lap at a time into a session whose features are built
incrementally, exactly as the HTTP gateway's ``/v1/sessions`` endpoint
feeds laps arriving from a remote client.  The streamed forecasts are
byte-identical to the pre-session implementation (features built once from
the finished race), because the incremental builder's arrays are
prefix-final: an origin is only forecast once every feature it reads has
its whole-race value.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..data.features import DEFAULT_MIN_LAPS, DEFAULT_SHIFT_LAG, CarFeatureSeries
from ..nn.precision import normalize_precision
from ..serving.engine import FleetForecaster
from ..serving.requests import fold_forecasts, spawn_request_rngs
from ..serving.sessions import RaceSession
from .telemetry import RaceTelemetry

__all__ = ["LiveRaceForecaster"]


class LiveRaceForecaster:
    """Streams per-lap fleet forecasts for every running car of a race."""

    def __init__(
        self,
        forecaster,
        horizon: int = 2,
        n_samples: int = 50,
        min_history: int = 10,
        rng: np.random.Generator | int | None = None,
        precision: str = "float64",
    ) -> None:
        if getattr(forecaster, "model", None) is None:
            raise ValueError("the forecaster must be fitted before live serving")
        self.forecaster = forecaster
        self.horizon = int(horizon)
        self.n_samples = int(n_samples)
        self.min_history = int(min_history)
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.precision = normalize_precision(precision)

    @property
    def engine(self) -> FleetForecaster:
        """The carry-mode engine, resolved through the forecaster on every
        access so a re-fit or fine-tune never leaves stale weights/states."""
        return self.forecaster.fleet_engine(mode="carry", precision=self.precision)

    # ------------------------------------------------------------------
    def forecast_at(
        self, series_list: List[CarFeatureSeries], origin: int
    ) -> Dict[int, np.ndarray]:
        """Fleet forecast for one origin: ``car_id -> (n_samples, horizon)``."""
        eligible = [
            s for s in series_list if self.min_history <= origin < len(s) - 1
        ]
        if not eligible:
            return {}
        # each car's forecast runs on its own stream, never the resident
        # model's, so a session's forecasts do not depend on the model's state
        groups = [
            self.forecaster._forecast_requests(
                series, origin, self.horizon, self.n_samples, stream
            )
            for series, stream in zip(eligible, spawn_request_rngs(self.rng, len(eligible)))
        ]
        results = self.engine.submit([r for group in groups for r in group])
        return {
            series.car_id: np.clip(samples, 1.0, 33.0)
            for series, samples in zip(eligible, fold_forecasts(groups, results))
        }

    def open_session(
        self,
        event: str = "live",
        year: int = 0,
        race_id: Optional[str] = None,
        delay: Optional[int] = None,
        start: Optional[int] = None,
        stop: Optional[int] = None,
        stride: int = 1,
    ) -> RaceSession:
        """A lap-streamed session over this forecaster (see ``RaceSession``)."""
        return RaceSession(
            self,
            event=event,
            year=year,
            race_id=race_id,
            delay=delay,
            start=start,
            stop=stop,
            stride=stride,
        )

    def stream(
        self,
        race: RaceTelemetry,
        start: Optional[int] = None,
        stop: Optional[int] = None,
        stride: int = 1,
    ) -> Iterator[Tuple[int, Dict[int, np.ndarray]]]:
        """Yield ``(origin, {car_id: samples})`` lap by lap over a race.

        The race is replayed as a timing feed through a
        :class:`~repro.serving.sessions.RaceSession` — one lap of records
        at a time, features grown incrementally, forecasts emitted as soon
        as they are final.  Because the engine runs in ``carry`` mode,
        consecutive origins only cost one incremental warm-up step per car.
        The session is held back ``shift_lag + horizon`` laps so the
        streamed results also match forecasters that read *future*
        covariates from the series (the RankNet oracle variant).
        """
        lengths = [
            n
            for n in (len(race.car_laps(car)) for car in race.car_ids())
            if n >= DEFAULT_MIN_LAPS
        ]
        if not lengths:
            return
        max_len = max(lengths)
        first = self.min_history if start is None else max(int(start), self.min_history)
        last = max_len - self.horizon - 1 if stop is None else min(int(stop), max_len - 2)
        session = self.open_session(
            event=race.event,
            year=race.year,
            race_id=race.race_id,
            delay=DEFAULT_SHIFT_LAG + self.horizon,
            start=first,
            stop=last,
            stride=stride,
        )
        for lap, records in race.iter_laps():
            yield from session.observe_lap(lap, records)
        yield from session.finish()
