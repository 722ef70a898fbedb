"""Decode-path breakdown of the fused block-RNG engine.

Completes the serving-side profiling picture: :mod:`repro.profiling.inference`
measures fleet batching against the per-car loop, this module times the
warm-up and decode phases *inside* the fleet path: the block-RNG,
allocation-free engine (``step_decode`` kernels on preallocated gate/state
buffers, one ``standard_normal`` call per RNG stream, hoisted
``(horizon, total, C)`` covariates).  Three workload shapes are profiled:
the Table V fleet (33 cars x 100 samples, horizon 2), the same fleet at the
Fig. 9 long horizon, and a strategy-sweep shape (hundreds of candidate
requests with few samples each).  :func:`decode_breakdown` takes the
engines to time as factories, so ``benchmarks/test_bench_decode.py`` runs
the per-lap reference loop (``tests/reference/decode.py``) next to the
shipped engine on identical workloads and gates the ratio.

:func:`steady_state_faults` counts the minor page faults
(``resource.getrusage``) per submit of one long-lived engine at the
``live-race`` (carry) and ``forecast-gateway`` (exact) serving shape.  The
engine keeps its warm-up and decode workspace between submits, so once
warm it should fault on almost nothing; a change that brings back
per-submit scratch shows up there first.

:func:`live_session_ms` times one lap of that carry-mode engine at the
``live-race`` shape, warm-up and decode apart.

Run as a module (``python -m repro.profiling.decode``) to print the fused
warm-up/decode times per shape, the live-session lap and the fault
counts; the ``bench-decode`` Makefile target and the CI bench-smoke job
do exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..models.deep.rankmodel import RankSeqModel
from ..serving.engine import FleetForecaster
from ..serving.requests import ForecastRequest, spawn_request_rngs

try:
    import resource
except ImportError:  # pragma: no cover - not available on Windows
    resource = None

__all__ = [
    "DecodeMeasurement",
    "decode_breakdown",
    "live_session_ms",
    "steady_state_faults",
    "DECODE_WORKLOADS",
]

#: (label, n_requests, n_samples, horizon) — the profiled workload shapes
DECODE_WORKLOADS: Tuple[Tuple[str, int, int, int], ...] = (
    ("tableV 33x100 h2", 33, 100, 2),
    ("fig9   33x100 h10", 33, 100, 10),
    ("sweep  462x5  h10", 462, 5, 10),
)


@dataclass
class DecodeMeasurement:
    """Wall-clock of one engine on one workload shape.

    ``warmup_ms``/``decode_ms`` are medians over the repeats;
    ``decode_repeats_ms`` keeps every repeat's decode time, in order, so
    two engines timed back to back in one repeat can be compared pairwise.
    """

    workload: str
    engine: str
    warmup_ms: float
    decode_ms: float
    trajectories: int
    decode_repeats_ms: Tuple[float, ...] = field(default=(), init=False)

    def as_row(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "engine": self.engine,
            "warmup_ms": round(self.warmup_ms, 2),
            "decode_ms": round(self.decode_ms, 2),
            "trajectories": self.trajectories,
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
    engines: Optional[Mapping[str, Callable[[RankSeqModel], FleetForecaster]]] = None,
) -> List[DecodeMeasurement]:
    """Measure decode engines on the profiled workload shapes.

    ``engines`` maps a row name to a factory building an exact-mode engine
    for the model (default: the shipped ``FleetForecaster`` as ``fused``).
    Each (workload, engine) pair is timed ``repeats`` times interleaved
    and the median is reported, so slow-host noise cancels out of ratios
    between engines; each repeat's time stays in ``decode_repeats_ms``.
    One engine per name serves every repeat after one untimed run, as a
    server's long-lived engine does, so the rows time a warm decode
    workspace.
    """
    factories = engines or {"fused": lambda model: FleetForecaster(model, mode="exact")}
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
        built = {name: factory(model) for name, factory in factories.items()}

        def run(name: str) -> Tuple[float, float]:
            engine = built[name]
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

        for name in built:  # warm the BLAS pools and each engine's workspace
            run(name)
        samples: Dict[str, List[Tuple[float, float]]] = {name: [] for name in built}
        for _ in range(repeats):
            for name in built:
                samples[name].append(run(name))
        for name, reps in samples.items():
            measurement = DecodeMeasurement(
                workload=label,
                engine=name,
                warmup_ms=1e3 * float(np.median([w for w, _ in reps])),
                decode_ms=1e3 * float(np.median([d for _, d in reps])),
                trajectories=n_requests * n_samples * n_origins,
            )
            measurement.decode_repeats_ms = tuple(1e3 * d for _, d in reps)
            measurements.append(measurement)
    return measurements


def _serving_laps(backbone: str, mode: str, n_origins: int, seed: int):
    """One long-lived engine at the serving shape and a function that
    submits lap ``j``: 33 cars x 50 samples, 2x40 backbone, encoder 30,
    horizon 2, the origin advancing one lap per submit as a live session's
    does."""
    n_cars, n_samples, horizon, encoder_length, num_covariates = 33, 50, 2, 30, 9
    model = RankSeqModel(
        num_covariates=num_covariates, hidden_dim=40, num_layers=2,
        encoder_length=encoder_length, decoder_length=horizon, rng=seed, backbone=backbone,
    )
    targets, covariates = _build_workload(
        n_cars, horizon, encoder_length, num_covariates, n_origins, seed
    )
    future = np.zeros((horizon, num_covariates))
    engine = FleetForecaster(model, mode=mode)
    streams = spawn_request_rngs(np.random.default_rng(seed + 1), n_cars * n_origins)

    def submit(j: int) -> None:
        engine.submit(_lap_requests(
            targets, covariates, encoder_length + j, encoder_length, future, n_samples,
            streams[j * n_cars : (j + 1) * n_cars],
        ))

    return engine, submit


def steady_state_faults(
    backbone: str = "lstm", mode: str = "carry", warm_laps: int = 3, laps: int = 8,
    seed: int = 0,
) -> Optional[float]:
    """Median minor page faults per submit of one warm engine.

    Runs the serving shape (:func:`_serving_laps`) of ``live-race``
    (``mode="carry"``) and ``forecast-gateway`` (``mode="exact"``); in
    exact mode every submit re-runs the whole 29-step warm-up.  After
    ``warm_laps`` uncounted laps the engine's workspace has reached its
    high-water row counts, so the remaining faults are what every further
    lap pays.  ``None`` where the ``resource`` module is unavailable.
    """
    if resource is None:
        return None
    _, submit = _serving_laps(backbone, mode, warm_laps + laps, seed)
    faults: List[int] = []
    for j in range(warm_laps + laps):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        submit(j)
        if j >= warm_laps:
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return float(np.median(faults))


def live_session_ms(
    backbone: str = "lstm", warm_laps: int = 3, laps: int = 20, seed: int = 0
) -> Tuple[float, float]:
    """Median warm-up and decode ms per lap of a live session's engine.

    The ``live-race`` shape (:func:`_serving_laps` in ``carry`` mode,
    consecutive origins): each lap advances every car's cached state by
    one step, then decodes 33 x 50 trajectories two laps ahead.
    """
    engine, submit = _serving_laps(backbone, "carry", warm_laps + laps, seed)
    warmup: List[float] = []
    decode: List[float] = []
    for j in range(warm_laps + laps):
        engine.reset_timings()
        submit(j)
        if j >= warm_laps:
            warmup.append(engine.timings["warmup_s"])
            decode.append(engine.timings["decode_s"])
    return 1e3 * float(np.median(warmup)), 1e3 * float(np.median(decode))


def _main() -> None:  # pragma: no cover - exercised by the CI bench smoke job
    from .report import write_bench_json

    rows = [{**m.as_row(), "wall_ms": round(m.decode_ms, 2)} for m in decode_breakdown()]
    print("Decode breakdown (2x40 LSTM, encoder 60, fused engine; median of 3)")
    print(f"{'workload':<20}{'warmup_ms':>11}{'decode_ms':>11}")
    for row in rows:
        print(f"{row['workload']:<20}{row['warmup_ms']:>11.1f}{row['decode_ms']:>11.1f}")
    warmup_ms, decode_ms = live_session_ms()
    print(
        f"live session 33x50 h2 carry, consecutive origins (median of 20 laps): "
        f"warmup_ms {warmup_ms:.2f}  decode_ms {decode_ms:.2f}"
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
