"""Decode-path breakdown: stepwise reference vs. the fused block-RNG engine.

Completes the serving-side profiling picture: :mod:`repro.profiling.inference`
measures fleet batching against the per-car loop, this module measures the
two decode engines *inside* the fleet path on identical workloads:

* ``stepwise`` — the retained per-lap reference loop (one allocating
  ``StackInference.step`` per lap on the same kernel, per-step
  ``np.repeat`` covariate rows, nested per-dim / per-request
  ``standard_normal`` calls);
* ``fused`` — the block-RNG, allocation-free engine (``step_decode``
  kernels with preallocated gate/state buffers, one ``standard_normal``
  call per RNG stream, hoisted ``(horizon, total, C)`` covariates).

The two are byte-identical (gated in ``benchmarks/test_bench_decode.py``);
this module reports where the wall-clock goes.  Three workload shapes are
profiled: the Table V fleet (33 cars x 100 samples, horizon 2), the same
fleet at the Fig. 9 long horizon, and a strategy-sweep shape (hundreds of
candidate requests with few samples each) where the deleted Python-level
loops matter most.  On a single-core BLAS-bound host the Table V shape is
dominated by the (shared) recurrent GEMMs and dense transcendentals, so
the fused gain is modest there and grows with horizon and request count —
see the measured table for the split.

:func:`steady_state_faults` counts the minor page faults
(``resource.getrusage``) per submit of one long-lived engine at the
``live-race`` (carry) and ``forecast-gateway`` (exact) serving shape.  The
engine keeps its warm-up and decode workspace between submits, so once
warm it should fault on almost nothing; a change that brings back
per-submit scratch shows up there first.

Run as a module (``python -m repro.profiling.decode``) to print the table;
the ``bench-decode`` Makefile target and the CI bench-smoke job do exactly
that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..models.deep.rankmodel import RankSeqModel
from ..serving.engine import FleetForecaster
from ..serving.requests import ForecastRequest, spawn_request_rngs

try:
    import resource
except ImportError:  # pragma: no cover - not available on Windows
    resource = None

__all__ = ["DecodeMeasurement", "decode_breakdown", "steady_state_faults", "DECODE_WORKLOADS"]

#: (label, n_requests, n_samples, horizon) — the profiled workload shapes
DECODE_WORKLOADS: Tuple[Tuple[str, int, int, int], ...] = (
    ("tableV 33x100 h2", 33, 100, 2),
    ("fig9   33x100 h10", 33, 100, 10),
    ("sweep  462x5  h10", 462, 5, 10),
)


@dataclass
class DecodeMeasurement:
    """Wall-clock of one decode strategy on one workload shape."""

    workload: str
    decode: str
    warmup_ms: float
    decode_ms: float
    trajectories: int
    speedup_vs_stepwise: float

    def as_row(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "decode": self.decode,
            "warmup_ms": round(self.warmup_ms, 2),
            "decode_ms": round(self.decode_ms, 2),
            "trajectories": self.trajectories,
            "speedup_vs_stepwise": round(self.speedup_vs_stepwise, 2),
        }


def _build_workload(n_requests: int, horizon: int, encoder_length: int,
                    num_covariates: int, n_origins: int, seed: int):
    rng = np.random.default_rng(seed)
    n_laps = encoder_length + n_origins + horizon + 1
    targets = [
        np.clip(10.0 + np.cumsum(rng.normal(0.0, 0.8, n_laps)), 1.0, 33.0)
        for _ in range(n_requests)
    ]
    covariates = [rng.normal(size=(n_laps, num_covariates)) for _ in range(n_requests)]
    return targets, covariates


def _lap_requests(targets, covariates, origin, encoder_length, future, n_samples, streams):
    """One request per car at ``origin``, keyed by car for carry mode."""
    window = slice(origin + 1 - encoder_length, origin + 1)
    return [
        ForecastRequest(
            targets[c][window], covariates[c][window], future,
            n_samples=n_samples, rng=streams[c], key=c, origin=origin,
        )
        for c in range(len(targets))
    ]


def decode_breakdown(
    encoder_length: int = 60,
    hidden_dim: int = 40,
    num_layers: int = 2,
    num_covariates: int = 9,
    n_origins: int = 2,
    backbone: str = "lstm",
    repeats: int = 3,
    workloads: Optional[Tuple[Tuple[str, int, int, int], ...]] = None,
    seed: int = 0,
) -> List[DecodeMeasurement]:
    """Measure both decode engines on the profiled workload shapes.

    Each (workload, decode) pair is timed ``repeats`` times interleaved and
    the median is reported, so slow-host noise cancels out of the ratios.
    One engine per decode mode serves every repeat after one untimed run,
    as a server's long-lived engine does, so the fused rows time a warm
    decode workspace.  The warm-up column is the same work for both
    engines (it runs on the shared ``forward_sequence`` path) and is
    excluded from the speedup.
    """
    measurements: List[DecodeMeasurement] = []
    for label, n_requests, n_samples, horizon in workloads or DECODE_WORKLOADS:
        model = RankSeqModel(
            num_covariates=num_covariates,
            hidden_dim=hidden_dim,
            num_layers=num_layers,
            encoder_length=encoder_length,
            decoder_length=horizon,
            rng=seed,
            backbone=backbone,
        )
        targets, covariates = _build_workload(
            n_requests, horizon, encoder_length, num_covariates, n_origins, seed
        )
        origins = [encoder_length + i for i in range(n_origins)]
        future = np.zeros((horizon, num_covariates))
        engines = {
            decode: FleetForecaster(model, mode="exact", decode=decode)
            for decode in ("stepwise", "fused")
        }

        def run(decode: str) -> Tuple[float, float]:
            engine = engines[decode]
            engine.reset_timings()
            streams = spawn_request_rngs(
                np.random.default_rng(seed + 1), n_requests * n_origins
            )
            for j, origin in enumerate(origins):
                engine.submit(_lap_requests(
                    targets, covariates, origin, encoder_length, future, n_samples,
                    streams[j * n_requests : (j + 1) * n_requests],
                ))
            timings = engine.timings
            return timings["warmup_s"], timings["decode_s"]

        for decode in engines:  # warm the BLAS pools and each engine's workspace
            run(decode)
        samples: Dict[str, List[Tuple[float, float]]] = {"stepwise": [], "fused": []}
        for _ in range(repeats):
            samples["stepwise"].append(run("stepwise"))
            samples["fused"].append(run("fused"))
        medians = {
            name: (
                float(np.median([w for w, _ in reps])),
                float(np.median([d for _, d in reps])),
            )
            for name, reps in samples.items()
        }
        stepwise_decode = medians["stepwise"][1]
        trajectories = n_requests * n_samples * n_origins
        for name in ("stepwise", "fused"):
            warmup_s, decode_s = medians[name]
            measurements.append(
                DecodeMeasurement(
                    workload=label,
                    decode=name,
                    warmup_ms=1e3 * warmup_s,
                    decode_ms=1e3 * decode_s,
                    trajectories=trajectories,
                    speedup_vs_stepwise=stepwise_decode / max(decode_s, 1e-12),
                )
            )
    return measurements


def steady_state_faults(
    backbone: str = "lstm", mode: str = "carry", warm_laps: int = 3, laps: int = 8,
    seed: int = 0,
) -> Optional[float]:
    """Median minor page faults per submit of one warm engine.

    Runs the serving shape of ``live-race`` (``mode="carry"``) and
    ``forecast-gateway`` (``mode="exact"``): 33 cars x 50 samples, 2x40
    backbone, encoder 30, horizon 2.  One long-lived engine forecasts one
    lap per submit with the origin advancing lap by lap, as a live session
    does; in exact mode every submit re-runs the whole 29-step warm-up.
    After ``warm_laps`` uncounted laps the engine's workspace has reached
    its high-water row counts, so the remaining faults are what every
    further lap pays.  ``None`` where the ``resource`` module is
    unavailable.
    """
    if resource is None:
        return None
    n_cars, n_samples, horizon, encoder_length, num_covariates = 33, 50, 2, 30, 9
    model = RankSeqModel(
        num_covariates=num_covariates, hidden_dim=40, num_layers=2,
        encoder_length=encoder_length, decoder_length=horizon, rng=seed, backbone=backbone,
    )
    n_origins = warm_laps + laps
    targets, covariates = _build_workload(
        n_cars, horizon, encoder_length, num_covariates, n_origins, seed
    )
    future = np.zeros((horizon, num_covariates))
    engine = FleetForecaster(model, mode=mode)
    streams = spawn_request_rngs(np.random.default_rng(seed + 1), n_cars * n_origins)
    faults: List[int] = []
    for j in range(n_origins):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        engine.submit(_lap_requests(
            targets, covariates, encoder_length + j, encoder_length, future, n_samples,
            streams[j * n_cars : (j + 1) * n_cars],
        ))
        if j >= warm_laps:
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return float(np.median(faults))


def _main() -> None:  # pragma: no cover - exercised by the CI bench smoke job
    from .report import write_bench_json

    rows = [
        {**m.as_row(), "wall_ms": round(m.decode_ms, 2), "speedup": round(m.speedup_vs_stepwise, 2)}
        for m in decode_breakdown()
    ]
    print("Decode breakdown (2x40 LSTM, encoder 60; decode phase only, median of 3)")
    print(f"{'workload':<20}{'decode':<10}{'warmup_ms':>11}{'decode_ms':>11}{'speedup':>9}")
    for row in rows:
        print(
            f"{row['workload']:<20}{row['decode']:<10}{row['warmup_ms']:>11.1f}"
            f"{row['decode_ms']:>11.1f}{row['speedup_vs_stepwise']:>9.2f}"
        )
    for mode in ("carry", "exact"):
        faults = steady_state_faults(mode=mode)
        print(
            f"33x50 h2 {mode}: minor faults per steady-state submit = "
            + ("n/a (no resource module)" if faults is None else f"{faults:.0f}")
        )
    print(f"wrote {write_bench_json('decode', rows)}")


if __name__ == "__main__":  # pragma: no cover
    _main()
