"""The scenario execution engine.

:class:`ScenarioEngine` turns a compiled :class:`~repro.scenarios.spec.ScenarioSpec`
into simulated races and (optionally) fleet forecast passes, producing one
:class:`ScenarioRaceResult` per race job and a closing
:class:`ScenarioSummary`.  It is deliberately transport-agnostic: the
in-process runner wires ``submit`` to
:meth:`~repro.serving.service.ForecastService.submit` while the HTTP
gateway wires it to the micro-batch scheduler, and because every random
stream is derived from the request seed with
:func:`~repro.scenarios.spec.derive_seed` and the fleet kernels are
batch-size invariant, both paths produce byte-identical result documents.

Results are plain JSON-safe dictionaries end to end (``to_doc`` /
``from_doc``): ints, strings, and Python floats — which round-trip
exactly through JSON — so "byte-identical" is checkable by comparing the
serialized documents.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..simulation.caution import CautionGenerator
from ..simulation.driver import DriverProfile, generate_field
from ..simulation.race import RaceSimulator
from ..simulation.telemetry import RaceTelemetry
from ..simulation.track import track_for_year
from .spec import (
    RaceJob,
    ScenarioError,
    ScenarioSpec,
    championship_points,
    derive_rng,
    derive_seed,
    point_label,
)

__all__ = ["ScenarioRaceResult", "ScenarioSummary", "ScenarioEngine", "finishing_order"]


# ----------------------------------------------------------------------
# result documents
# ----------------------------------------------------------------------
@dataclass
class ScenarioRaceResult:
    """Outcome of one simulated race job (JSON-safe fields only)."""

    scenario: str
    label: str
    event: str
    year: int
    replica: int
    params: Dict[str, object]
    seed: int
    winner: int
    podium: List[int]
    laps: int
    starters: int
    finishers: int
    caution_laps: int
    pit_stops: int
    lead_changes: int
    winner_margin_s: float
    points: Dict[int, int]
    forecast: Optional[dict] = None

    @property
    def point_label(self) -> str:
        return point_label(self.params)

    def to_doc(self) -> dict:
        document = asdict(self)
        # JSON objects key on strings; keep the document canonical
        document["points"] = {str(car): pts for car, pts in self.points.items()}
        return document

    @classmethod
    def from_doc(cls, document: dict) -> "ScenarioRaceResult":
        document = dict(document)
        document["points"] = {int(car): int(pts) for car, pts in document["points"].items()}
        return cls(**document)


@dataclass
class ScenarioSummary:
    """Scenario-level aggregation: per-grid-point rows, season standings."""

    scenario: str
    kind: str
    races: int
    replicas: int
    rows: List[dict]
    standings: Optional[List[dict]] = None
    champion_odds: Optional[Dict[str, float]] = None
    forecast_mae: Optional[float] = None

    def to_doc(self) -> dict:
        return asdict(self)

    @classmethod
    def from_doc(cls, document: dict) -> "ScenarioSummary":
        return cls(**dict(document))


def finishing_order(race: RaceTelemetry) -> List[int]:
    """Final classification: finishers by rank, then retirees by distance."""
    final_lap = race.num_laps
    ranks = race.ranks_at_lap(final_lap)
    order = sorted(ranks, key=lambda car: ranks[car])
    retired = []
    for car in race.car_ids():
        if car in ranks:
            continue
        laps = race.car_laps(car)
        retired.append((int(laps.laps[-1]), -int(laps.rank[-1]), car))
    # more laps completed classifies higher; ties break on last held rank
    retired.sort(reverse=True)
    return order + [car for _laps, _rank, car in retired]


def _lead_changes(race: RaceTelemetry) -> int:
    leaders = [
        int(race.car_id[(race.lap == lap) & (race.rank == 1)][0])
        for lap in range(1, race.num_laps + 1)
    ]
    return sum(1 for prev, cur in zip(leaders, leaders[1:]) if prev != cur)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class ScenarioEngine:
    """Runs scenario specs; forecast passes go through an injected submitter.

    Parameters
    ----------
    resolve:
        ``resolve(model_name) -> forecaster`` for forecast-scoring
        scenarios (e.g. ``service.load(name).forecaster``).  ``None``
        refuses forecast blocks.
    submit:
        ``submit([NamedForecastRequest, ...]) -> [samples | Exception]``;
        the in-process service's ``submit`` or the gateway scheduler's
        ``submit_settled`` — byte-identical either way.
    """

    def __init__(
        self,
        resolve: Optional[Callable[[str], object]] = None,
        submit: Optional[Callable[[Sequence], List]] = None,
    ) -> None:
        self._resolve = resolve
        self._submit = submit

    @classmethod
    def from_service(cls, service) -> "ScenarioEngine":
        """An engine over an in-process :class:`~repro.serving.ForecastService`."""
        return cls(
            resolve=lambda name: service.load(name).forecaster,
            submit=service.submit,
        )

    # ------------------------------------------------------------------
    def run_iter(
        self, spec: ScenarioSpec, seed: int
    ) -> Iterator[Union[ScenarioRaceResult, ScenarioSummary]]:
        """Yield one result per race job as it completes, then the summary."""
        results: List[ScenarioRaceResult] = []
        for job in spec.jobs():
            result = self.run_job(spec, job, seed)
            results.append(result)
            yield result
        yield self.summarize(spec, results)

    def run(self, spec: ScenarioSpec, seed: int) -> Tuple[List[ScenarioRaceResult], ScenarioSummary]:
        """Run the whole scenario; returns ``(race results, summary)``."""
        items = list(self.run_iter(spec, seed))
        return list(items[:-1]), items[-1]

    # ------------------------------------------------------------------
    # one race job
    # ------------------------------------------------------------------
    def run_job(self, spec: ScenarioSpec, job: RaceJob, seed: int) -> ScenarioRaceResult:
        race, race_seed = self._simulate(spec, job, seed)
        order = finishing_order(race)
        forecast = None
        if spec.forecast is not None:
            forecast = self._score_forecast(spec, job, seed, race)
        runner_up = race.ranks_at_lap(race.num_laps)
        margin = 0.0
        if len(runner_up) > 1:
            final = race.lap == race.num_laps
            margin = float(np.sort(race.time_behind_leader[final])[1])
        return ScenarioRaceResult(
            scenario=spec.name,
            label=job.label,
            event=job.event,
            year=job.year,
            replica=job.replica,
            params=dict(job.params),
            seed=race_seed,
            winner=race.winner(),
            podium=[int(car) for car in order[:3]],
            laps=race.num_laps,
            starters=len(race.car_ids()),
            finishers=len(race.finishers()),
            caution_laps=int(np.unique(race.lap[race.is_caution]).size),
            pit_stops=int(race.is_pit.sum()),
            lead_changes=_lead_changes(race),
            winner_margin_s=margin,
            points=championship_points(order),
            forecast=forecast,
        )

    def _simulate(self, spec: ScenarioSpec, job: RaceJob, seed: int) -> Tuple[RaceTelemetry, int]:
        params = job.params
        track = track_for_year(job.event, job.year)
        overrides = {
            key[len("track_"):]: value
            for key, value in params.items()
            if key.startswith("track_")
        }
        if overrides:
            track = replace(
                track,
                **{
                    key: (int(value) if key in ("total_laps", "num_cars") else float(value))
                    for key, value in overrides.items()
                },
            )
        drivers = self._build_field(spec, job, seed, track.num_cars)
        race_seed = derive_seed(seed, spec.name, job.label, "race")
        rng = np.random.default_rng(race_seed)
        caution_kwargs = {}
        if "caution_hazard_scale" in params:
            caution_kwargs["hazard_per_lap"] = 0.018 * float(params["caution_hazard_scale"])
        if "caution_mean_duration" in params:
            caution_kwargs["mean_duration"] = float(params["caution_mean_duration"])
        if "caution_retirement_prob" in params:
            caution_kwargs["retirement_prob"] = float(params["caution_retirement_prob"])
        pit_kwargs = {}
        if "pit_unscheduled_prob" in params:
            pit_kwargs["unscheduled_prob"] = float(params["pit_unscheduled_prob"])
        if "pit_caution_pit_scale" in params:
            pit_kwargs["caution_pit_scale"] = float(params["pit_caution_pit_scale"])
        simulator = RaceSimulator(
            track,
            event=job.event,
            year=job.year,
            drivers=drivers,
            seed=rng,
            caution_generator=CautionGenerator(track, rng, **caution_kwargs),
            pit_kwargs=pit_kwargs or None,
        )
        return simulator.run(), race_seed

    def _build_field(
        self, spec: ScenarioSpec, job: RaceJob, seed: int, num_cars: int
    ) -> List[DriverProfile]:
        params = job.params
        field_rng = derive_rng(seed, spec.name, job.label, "field")
        drivers = generate_field(num_cars, field_rng)
        degradation = float(params.get("driver_degradation", 0.0))
        delta = params.get("driver_skill_delta")
        target = int(params.get("driver_car_id", 1))
        shift = float(params.get("pit_aggression_shift", 0.0))
        perturbed: List[DriverProfile] = []
        for driver in drivers:
            skill = driver.skill + degradation
            if delta is not None and driver.car_id == target:
                skill += float(delta)
            aggression = float(np.clip(driver.aggression + shift, 0.05, 0.95))
            perturbed.append(replace(driver, skill=float(skill), aggression=aggression))
        return perturbed

    # ------------------------------------------------------------------
    # forecast scoring
    # ------------------------------------------------------------------
    def _score_forecast(
        self, spec: ScenarioSpec, job: RaceJob, seed: int, race: RaceTelemetry
    ) -> dict:
        if self._resolve is None or self._submit is None:
            raise ScenarioError(
                f"scenario {spec.name!r} scores model {spec.forecast.model!r} but this "
                "engine has no forecast backend (pass --store to repro-scenarios, or "
                "submit the scenario to a gateway)"
            )
        # imported here: the feature pipeline must not burden sim-only runs
        from ..data.features import build_race_features
        from ..serving.requests import NamedForecastRequest, fold_forecasts

        fc = spec.forecast
        forecaster = self._resolve(fc.model)
        if not hasattr(forecaster, "_forecast_requests"):
            raise ScenarioError(
                f"model {fc.model!r} cannot serve scenario forecasts "
                "(needs a fleet-batched deep forecaster)"
            )
        series_list = build_race_features(race)
        groups: List[List[NamedForecastRequest]] = []
        meta: List[Tuple[int, object]] = []
        for origin in fc.origins:
            for series in series_list:
                if origin < max(fc.min_history, 1) or origin + fc.horizon > len(series):
                    continue
                request_seed = derive_seed(
                    seed, spec.name, job.label, "forecast", origin, int(series.car_id)
                )
                requests = forecaster._forecast_requests(
                    series,
                    origin,
                    fc.horizon,
                    fc.n_samples,
                    request_seed,
                    key=(series.race_id, int(series.car_id)),
                )
                groups.append(
                    [
                        NamedForecastRequest(model=fc.model, precision=fc.precision, request=r)
                        for r in requests
                    ]
                )
                meta.append((origin, series))
        outcomes = self._submit([named for group in groups for named in group])
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        per_origin: Dict[int, List[float]] = {}
        for (origin, series), samples in zip(meta, fold_forecasts(groups, outcomes)):
            predicted = float(np.mean(np.asarray(samples)[:, -1]))
            actual = float(series.rank[origin + fc.horizon - 1])
            per_origin.setdefault(origin, []).append(abs(predicted - actual))
        origins = sorted(per_origin)
        mae = [float(np.mean(per_origin[o])) for o in origins]
        return {
            "model": fc.model,
            "horizon": int(fc.horizon),
            "n_samples": int(fc.n_samples),
            "precision": fc.precision,
            "origins": [int(o) for o in origins],
            "cars": [len(per_origin[o]) for o in origins],
            "mae": mae,
            "mean_mae": float(np.mean(mae)) if mae else None,
        }

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------
    def summarize(
        self, spec: ScenarioSpec, results: Sequence[ScenarioRaceResult]
    ) -> ScenarioSummary:
        rows = []
        by_point: Dict[str, List[ScenarioRaceResult]] = {}
        for result in results:
            by_point.setdefault(result.point_label, []).append(result)
        for label, group in by_point.items():
            winners = [r.winner for r in group]
            row = {
                "point": label,
                "races": len(group),
                "mean_caution_laps": float(np.mean([r.caution_laps for r in group])),
                "mean_pit_stops": float(np.mean([r.pit_stops for r in group])),
                "mean_lead_changes": float(np.mean([r.lead_changes for r in group])),
                "mean_finishers": float(np.mean([r.finishers for r in group])),
                "distinct_winners": len(set(winners)),
                "top_winner": int(max(set(winners), key=lambda c: (winners.count(c), -c))),
            }
            maes = [
                r.forecast["mean_mae"]
                for r in group
                if r.forecast is not None and r.forecast["mean_mae"] is not None
            ]
            if maes:
                row["mean_forecast_mae"] = float(np.mean(maes))
            rows.append(row)
        standings = None
        champion_odds = None
        if spec.kind == "season":
            standings, champion_odds = self._championship(spec, results)
        maes = [
            r.forecast["mean_mae"]
            for r in results
            if r.forecast is not None and r.forecast["mean_mae"] is not None
        ]
        return ScenarioSummary(
            scenario=spec.name,
            kind=spec.kind,
            races=len(results),
            replicas=spec.replicas,
            rows=rows,
            standings=standings,
            champion_odds=champion_odds,
            forecast_mae=float(np.mean(maes)) if maes else None,
        )

    @staticmethod
    def _championship(
        spec: ScenarioSpec, results: Sequence[ScenarioRaceResult]
    ) -> Tuple[List[dict], Dict[str, float]]:
        """Replica-wise championships: points add up across the calendar."""
        replica_points: Dict[int, Dict[int, int]] = {}
        for result in results:
            table = replica_points.setdefault(result.replica, {})
            for car, pts in result.points.items():
                table[car] = table.get(car, 0) + pts
        champions: List[int] = []
        for replica in sorted(replica_points):
            table = replica_points[replica]
            champions.append(min(table, key=lambda car: (-table[car], car)))
        odds = {
            str(car): champions.count(car) / len(champions) for car in sorted(set(champions))
        }
        totals: Dict[int, List[int]] = {}
        for table in replica_points.values():
            for car, pts in table.items():
                totals.setdefault(car, []).append(pts)
        mean_points = {car: float(np.mean(pts)) for car, pts in totals.items()}
        order = sorted(mean_points, key=lambda car: (-mean_points[car], car))
        standings = [
            {
                "position": position,
                "car_id": int(car),
                "mean_points": mean_points[car],
                "titles": champions.count(car),
            }
            for position, car in enumerate(order[:10], start=1)
        ]
        return standings, odds
