"""Inference-path breakdown: per-car loop vs. the fleet-batched engine.

Complements the training-side kernel/roofline profiling with a measurement
of the serving hot path: the rolling-origin Monte-Carlo forecast workload
(Fig. 9 style — every car of the field forecast at every origin).  Three
strategies are timed on an identical synthetic workload:

* ``per-car loop`` — one single-request engine submit per (car, origin):
  the original implementation's access pattern on the engine's kernels (at
  small workloads the fixed 256-row GEMM blocks make this a somewhat slow
  baseline; at evaluation scale it is faster than the original per-car
  code was);
* ``fleet-exact`` — all cars of an origin in one engine submit (warm-up
  batched across cars, decode batched across cars x samples);
* ``fleet-carry`` — additionally carries cached warm-up states between
  consecutive origins instead of replaying the history window.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..models.deep.rankmodel import RankSeqModel
from ..serving.engine import FleetForecaster
from ..serving.requests import ForecastRequest, spawn_request_rngs

__all__ = ["InferenceMeasurement", "fleet_inference_breakdown"]


@dataclass
class InferenceMeasurement:
    """Wall-clock of one inference strategy over the rolling-origin workload."""

    strategy: str
    wall_s: float
    forecasts: int
    speedup_vs_loop: float

    def as_row(self) -> Dict[str, object]:
        return {
            "strategy": self.strategy,
            "wall_ms": round(1e3 * self.wall_s, 2),
            "forecasts": self.forecasts,
            "forecasts_per_s": round(self.forecasts / max(self.wall_s, 1e-12), 1),
            "speedup_vs_loop": round(self.speedup_vs_loop, 2),
        }


def _synthetic_fleet(
    n_cars: int, n_laps: int, num_covariates: int, rng: np.random.Generator
):
    """Random-walk rank histories + covariates for a synthetic field."""
    targets = []
    covariates = []
    for _ in range(n_cars):
        steps = rng.normal(0.0, 0.8, size=n_laps)
        rank = np.clip(10.0 + np.cumsum(steps), 1.0, 33.0)
        targets.append(rank)
        covariates.append(rng.normal(size=(n_laps, num_covariates)))
    return targets, covariates


def fleet_inference_breakdown(
    n_cars: int = 8,
    n_samples: int = 24,
    n_origins: int = 4,
    encoder_length: int = 24,
    horizon: int = 2,
    hidden_dim: int = 24,
    num_layers: int = 2,
    num_covariates: int = 4,
    seed: int = 0,
) -> List[InferenceMeasurement]:
    """Measure the three inference strategies on one synthetic workload."""
    rng = np.random.default_rng(seed)
    n_laps = encoder_length + n_origins + horizon + 1
    targets, covariates = _synthetic_fleet(n_cars, n_laps, num_covariates, rng)
    model = RankSeqModel(
        num_covariates=num_covariates,
        hidden_dim=hidden_dim,
        num_layers=num_layers,
        encoder_length=encoder_length,
        decoder_length=horizon,
        rng=seed,
    )
    origins = [encoder_length + i for i in range(n_origins)]
    future = np.zeros((horizon, num_covariates))

    def request(car: int, origin: int, stream) -> ForecastRequest:
        start = origin + 1 - encoder_length
        return ForecastRequest(
            history_target=targets[car][start : origin + 1],
            history_covariates=covariates[car][start : origin + 1],
            future_covariates=future,
            n_samples=n_samples,
            rng=stream,
            key=car,
            origin=origin,
        )

    n_forecasts = n_cars * n_origins

    # per-car loop (the seed access pattern): one single-request submit each
    engine = FleetForecaster(model)
    streams = spawn_request_rngs(np.random.default_rng(seed), n_forecasts)
    t0 = time.perf_counter()
    for j, origin in enumerate(origins):
        for car in range(n_cars):
            engine.submit([request(car, origin, streams[j * n_cars + car])])
    loop_s = time.perf_counter() - t0

    timings = [("per-car loop", loop_s)]
    for mode in ("exact", "carry"):
        engine = FleetForecaster(model, mode=mode)
        streams = spawn_request_rngs(np.random.default_rng(seed), n_forecasts)
        t0 = time.perf_counter()
        for j, origin in enumerate(origins):
            engine.submit(
                [request(car, origin, streams[j * n_cars + car]) for car in range(n_cars)]
            )
        timings.append((f"fleet-{mode}", time.perf_counter() - t0))

    return [
        InferenceMeasurement(
            strategy=name,
            wall_s=wall,
            forecasts=n_forecasts,
            speedup_vs_loop=loop_s / max(wall, 1e-12),
        )
        for name, wall in timings
    ]
