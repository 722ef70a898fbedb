"""Serving-gateway benchmark: HTTP overhead and cross-client micro-batching.

Completes the serving-side profiling picture one layer up from
:mod:`repro.profiling.decode`: how much does the *process boundary* cost,
and how much of the fleet engine's batching throughput does the
micro-batch scheduler win back for concurrent single-request clients?

Four paths are measured on one identical workload (same seeded requests,
so every path returns byte-identical samples):

* ``direct batched``    — one in-process ``ForecastService.submit`` of the
  whole batch: the floor the wire API is measured against;
* ``direct sequential`` — one in-process submit per request: what a naive
  per-connection server would do to the engine;
* ``http sequential``   — one HTTP round trip per request from a single
  client (micro-batch window 0): boundary overhead on top of the above;
* ``http N clients``    — N concurrent clients posting single-request
  bodies while the scheduler coalesces them into shared fleet passes, at
  several collection windows.

On this single-core host the coalesced path recovers most of the direct
sequential/batched gap (see ``benchmarks/results/serving.txt``); the gate
in ``benchmarks/test_bench_serving.py`` holds conservative floors of those
measurements.

Run as a module (``python -m repro.profiling.server``) to print the
table; the ``bench-serve`` Makefile target does exactly that.
"""

from __future__ import annotations

import tempfile
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..artifacts import ArtifactStore
from ..data.features import build_race_features
from ..models import DeepARForecaster
from ..serving import ForecastClient, ForecastService
from ..serving.requests import NamedForecastRequest
from ..serving.server import ForecastServer, ServerConfig
from ..simulation import RaceSimulator, track_for_year

__all__ = [
    "ServeMeasurement",
    "gateway_benchmark",
    "build_serving_fixture",
    "isolation_benchmark",
]

MODEL_NAME = "bench-deepar"
#: sweep-capable model for the isolation benchmark (the strategy
#: optimizer needs a forecaster conditioned on race-status covariates)
SWEEP_MODEL_NAME = "bench-ranknet"


@dataclass
class ServeMeasurement:
    """Wall-clock of one serving path on the shared workload."""

    path: str
    clients: int
    window_ms: float
    requests: int
    wall_s: float
    ms_per_request: float

    def as_row(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "clients": self.clients,
            "window_ms": self.window_ms,
            "requests": self.requests,
            "wall_s": round(self.wall_s, 4),
            "ms_per_request": round(self.ms_per_request, 2),
        }


def build_serving_fixture(root: str, seed: int = 5):
    """Fit the benchmark model into ``root`` and return its feature series."""
    track = replace(track_for_year("Indy500", 2018), total_laps=60, num_cars=10)
    race = RaceSimulator(track, event="Indy500", year=2019, seed=3).run()
    series = build_race_features(race)
    model = DeepARForecaster(
        encoder_length=12,
        decoder_length=2,
        hidden_dim=16,
        num_layers=1,
        epochs=1,
        batch_size=32,
        max_train_windows=200,
        seed=seed,
    )
    model.fit(series[:5])
    ArtifactStore(root).save_model(MODEL_NAME, model)
    return race, series, model


def _request_batch(forecaster, series, n_requests: int, n_samples: int, horizon: int):
    origins = [16 + (i % 24) for i in range(n_requests)]
    return [
        NamedForecastRequest(MODEL_NAME, request)
        for i, origin in enumerate(origins)
        for request in forecaster._forecast_requests(
            series, origin, horizon, n_samples, 1000 + i, key=(series.race_id, series.car_id, i)
        )
    ]


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def gateway_benchmark(
    n_requests: int = 48,
    n_clients: int = 3,
    n_samples: int = 20,
    horizon: int = 2,
    windows_ms: Sequence[float] = (0.0, 2.0, 10.0),
    repeats: int = 3,
    root: Optional[str] = None,
    seed: int = 0,
) -> List[ServeMeasurement]:
    """Measure every serving path on one shared seeded workload.

    Each path is timed ``repeats`` times and the median wall-clock is
    reported.  ``n_requests`` must divide evenly across ``n_clients``.
    """
    if n_requests % n_clients:
        raise ValueError("n_requests must be divisible by n_clients")
    with tempfile.TemporaryDirectory() as scratch:
        store_root = root or scratch
        _, series, _ = build_serving_fixture(store_root, seed=seed + 5)
        service = ForecastService(ArtifactStore(store_root))
        forecaster = service.load(MODEL_NAME).forecaster
        batch = _request_batch(forecaster, series[0], n_requests, n_samples, horizon)
        measurements: List[ServeMeasurement] = []

        def add(path: str, clients: int, window_ms: float, walls: List[float]) -> None:
            wall = float(np.median(walls))
            measurements.append(
                ServeMeasurement(
                    path=path,
                    clients=clients,
                    window_ms=window_ms,
                    requests=n_requests,
                    wall_s=wall,
                    ms_per_request=1e3 * wall / n_requests,
                )
            )

        service.submit(batch)  # warm the engine / allocator once
        add(
            "direct batched", 0, 0.0,
            [_timed(lambda: service.submit(batch)) for _ in range(repeats)],
        )
        add(
            "direct sequential", 0, 0.0,
            [
                _timed(lambda: [service.submit([named]) for named in batch])
                for _ in range(repeats)
            ],
        )

        per_client = n_requests // n_clients
        shards = [batch[c * per_client : (c + 1) * per_client] for c in range(n_clients)]
        for window_ms in windows_ms:
            config = ServerConfig(
                store=store_root, port=0, preload=[MODEL_NAME], batch_window_ms=window_ms
            )
            with ForecastServer(config) as server:
                client = ForecastClient(port=server.port)
                client.forecast(batch[:2])  # warm the connection path

                if window_ms == windows_ms[0]:
                    add(
                        "http sequential", 1, window_ms,
                        [
                            _timed(lambda: [client.forecast([named]) for named in batch])
                            for _ in range(repeats)
                        ],
                    )

                def concurrent_pass() -> None:
                    barrier = threading.Barrier(n_clients)
                    errors: List[BaseException] = []

                    def run(shard) -> None:
                        try:
                            own = ForecastClient(port=server.port)
                            barrier.wait()
                            for named in shard:
                                own.forecast([named])
                        except BaseException as exc:  # pragma: no cover
                            errors.append(exc)

                    threads = [
                        threading.Thread(target=run, args=(shard,)) for shard in shards
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                    if errors:
                        raise errors[0]

                add(
                    f"http {n_clients} clients", n_clients, window_ms,
                    [_timed(concurrent_pass) for _ in range(repeats)],
                )
        return measurements


def isolation_benchmark(
    root: Optional[str] = None,
    n_probe: int = 12,
    sweep_origins: int = 16,
    sweep_samples: int = 384,
    seed: int = 0,
) -> Dict[str, float]:
    """Cross-model isolation: a slow sweep on model A must not block model B.

    Runs the gateway in **worker mode** — one supervised subprocess per
    model — and measures single-request forecast latency on model B (the
    DeepAR) while model A (a sweep-capable RankNet oracle) grinds through
    a long strategy sweep.  Under the old global gateway lock a B probe
    arriving mid-sweep waited out the entire sweep (``blocking_ratio``
    ~= 1); with per-model replicas the probe only pays CPU contention.
    The benchmark gate holds ``blocking_ratio`` — the worst B probe as a
    fraction of the sweep wall-clock — under 0.5.
    """
    from ..models import RankNetForecaster

    with tempfile.TemporaryDirectory() as scratch:
        store_root = root or scratch
        _, series, _ = build_serving_fixture(store_root, seed=seed + 5)
        sweeper_model = RankNetForecaster(
            variant="oracle",
            encoder_length=12,
            decoder_length=2,
            hidden_dim=16,
            num_layers=1,
            epochs=1,
            batch_size=32,
            max_train_windows=200,
            seed=seed + 6,
        )
        sweeper_model.fit(series[:5])
        ArtifactStore(store_root).save_model(SWEEP_MODEL_NAME, sweeper_model)
        service = ForecastService(ArtifactStore(store_root))
        forecaster = service.load(MODEL_NAME).forecaster

        def probe_request():
            return _request_batch(forecaster, series[0], 1, 5, 2)[0]

        config = ServerConfig(
            store=store_root,
            port=0,
            capacity=2,
            preload=[MODEL_NAME, SWEEP_MODEL_NAME],
            batch_window_ms=0.0,
            workers=True,
        )
        with ForecastServer(config) as server:
            client = ForecastClient(port=server.port, timeout_s=600.0)
            client.forecast([probe_request()])  # warm B's replica + connection

            baseline = [
                _timed(lambda: client.forecast([probe_request()]))
                for _ in range(n_probe)
            ]

            sweep_wall: Dict[str, float] = {}

            def run_sweep() -> None:
                own = ForecastClient(port=server.port, timeout_s=600.0)
                started = time.perf_counter()
                own.sweep(
                    SWEEP_MODEL_NAME,
                    series[0],
                    origins=[16 + i for i in range(sweep_origins)],
                    horizon=2,
                    rng=7,
                    n_samples=sweep_samples,
                )
                sweep_wall["wall_s"] = time.perf_counter() - started

            sweeper = threading.Thread(target=run_sweep)
            sweeper.start()
            during: List[float] = []
            while True:  # at least one probe even against a fast sweep
                during.append(_timed(lambda: client.forecast([probe_request()])))
                if not sweeper.is_alive():
                    break
            sweeper.join()

        wall = sweep_wall["wall_s"]
        return {
            "sweep_wall_s": wall,
            "probes_during_sweep": float(len(during)),
            "b_baseline_median_s": float(np.median(baseline)),
            "b_during_median_s": float(np.median(during)),
            "b_during_max_s": float(max(during)),
            "blocking_ratio": float(max(during) / wall),
        }


def _main() -> None:  # pragma: no cover - exercised by the CI bench smoke job
    from .report import write_bench_json

    rows = [m.as_row() for m in gateway_benchmark()]
    baseline_s = rows[0]["wall_s"] if rows else 0.0
    for row in rows:
        row["workload"] = row["path"]
        row["wall_ms"] = round(1e3 * row["wall_s"], 2)
        row["speedup"] = round(baseline_s / row["wall_s"], 2) if row["wall_s"] else None
    print(
        "Serving gateway benchmark (tiny DeepAR, 48 seeded single-car requests, "
        "20 samples, h2; median of 3)"
    )
    print(f"{'path':<20}{'clients':>8}{'window_ms':>11}{'wall_s':>9}{'ms/req':>8}")
    for row in rows:
        print(
            f"{row['path']:<20}{row['clients']:>8}{row['window_ms']:>11.1f}"
            f"{row['wall_s']:>9.3f}{row['ms_per_request']:>8.2f}"
        )
    isolation = isolation_benchmark()
    print()
    print(
        "Cross-model isolation (worker mode: sweep on A vs single-request "
        "forecasts on B)"
    )
    for key, value in isolation.items():
        print(f"  {key:<22}{value:.4f}")
    print(f"wrote {write_bench_json('server', rows, extra={'isolation': isolation})}")


if __name__ == "__main__":  # pragma: no cover
    _main()
