"""Serving gateway benchmark gates: byte-identity and overhead floors.

Three guarantees are gated on a shared seeded workload (tiny DeepAR, 48
single-car requests, 20 Monte-Carlo samples each):

* **byte-identity** — the samples served over HTTP (including via the
  micro-batch scheduler under 3 concurrent clients) are bitwise equal to
  the same requests submitted to the in-process ``ForecastService``;
* **overhead floors** — the process boundary stays cheap and micro-
  batching does not regress: conservative bounds of the medians measured
  on this single-core host (see ``benchmarks/results/serving.txt``);
* **cross-model isolation** — in worker mode a long strategy sweep on one
  model's replica never blocks single-request forecasts on another model
  (the ``blocking_ratio`` ceiling; measured ~0.03 vs ~1.0 under the old
  global gateway lock — ``benchmarks/results/serving-isolation.txt``).

Measured baseline on the 1-core reference host (median of 3): direct
batched 0.12 ms/req, direct sequential 0.80 ms/req, HTTP sequential
2.2 ms/req, HTTP 3 clients coalesced 1.8-1.9 ms/req at 0-2 ms windows.
The coalescing win over sequential HTTP is modest *at this model size*
because a single-request fleet pass (~0.8 ms) is cheaper than one HTTP
round trip (~1.4 ms); the in-process batched-vs-sequential ratio (~6x)
is what the scheduler recovers as models grow.  The gates below are set
far above the measured medians so they only catch real regressions, not
runner noise (PR 2/PR 3 precedent).
"""

import threading

import numpy as np

from repro.artifacts import ArtifactStore
from repro.profiling.server import (
    MODEL_NAME,
    build_serving_fixture,
    gateway_benchmark,
    isolation_benchmark,
)
from repro.serving import ForecastClient, ForecastService
from repro.serving.server import ForecastServer, ServerConfig

from conftest import publish

# conservative floors/ceilings of the measured medians (module docstring)
MAX_HTTP_OVERHEAD_MS_PER_REQUEST = 25.0   # measured ~1.4
MAX_COALESCED_VS_SEQUENTIAL_HTTP = 2.0    # measured ~0.85
MIN_DIRECT_BATCHED_SPEEDUP = 2.0          # measured ~6.6
MAX_ISOLATION_BLOCKING_RATIO = 0.5        # measured ~0.03


def _request_batch(forecaster, series, seeds, origin=20, n_samples=9, horizon=2):
    return [
        ForecastClient.request(
            MODEL_NAME,
            forecaster._history_target(series, origin + i),
            forecaster._history_covariates(series, origin + i),
            forecaster._future_covariates(series, origin + i, horizon),
            n_samples=n_samples,
            rng=seed,
            key=(series.race_id, series.car_id, i),
            origin=origin + i,
        )
        for i, seed in enumerate(seeds)
    ]


def test_bench_gateway_byte_identity_under_concurrent_clients(tmp_path):
    """HTTP + micro-batching (3 clients) == direct in-process submission."""
    root = str(tmp_path / "store")
    _, series, _ = build_serving_fixture(root)
    service = ForecastService(ArtifactStore(root))
    forecaster = service.load(MODEL_NAME).forecaster

    # two physically distinct request sets: an integer seed pins the stream,
    # but each ForecastRequest materialises its own Generator whose state is
    # consumed by whichever path runs it
    def build_shards():
        return [
            _request_batch(forecaster, series[0], seeds=range(100 * c, 100 * c + 4))
            for c in range(3)
        ]

    reference = [service.submit(shard) for shard in build_shards()]
    shards = build_shards()

    config = ServerConfig(store=root, port=0, preload=[MODEL_NAME], batch_window_ms=25.0)
    with ForecastServer(config) as server:
        results: dict = {}
        errors: list = []
        barrier = threading.Barrier(3)

        def run(client_id):
            try:
                client = ForecastClient(port=server.port)
                barrier.wait()
                results[client_id] = client.forecast(shards[client_id])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(c,)) for c in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        stats = server.gateway.scheduler_stats()

    for client_id in range(3):
        for got, expected in zip(results[client_id], reference[client_id]):
            np.testing.assert_array_equal(got, expected)
    # the 25 ms window really did coalesce traffic from distinct connections
    assert stats["coalesced_batches"] >= 1, stats


def test_bench_gateway_overhead_floors():
    measurements = gateway_benchmark(windows_ms=(0.0, 2.0, 10.0), repeats=3)
    by_path = {}
    for m in measurements:
        by_path.setdefault(m.path, []).append(m)

    direct_batched = by_path["direct batched"][0]
    direct_sequential = by_path["direct sequential"][0]
    http_sequential = by_path["http sequential"][0]
    coalesced = min(m.ms_per_request for m in by_path["http 3 clients"])

    lines = [
        "Serving gateway benchmark (tiny DeepAR, 48 seeded requests, 20 samples, h2;",
        "median of 3 runs per path; 1-core host)",
        f"{'path':<20}{'clients':>8}{'window_ms':>11}{'wall_s':>9}{'ms/req':>8}",
    ]
    for m in measurements:
        row = m.as_row()
        lines.append(
            f"{row['path']:<20}{row['clients']:>8}{row['window_ms']:>11.1f}"
            f"{row['wall_s']:>9.3f}{row['ms_per_request']:>8.2f}"
        )
    lines += [
        "byte-identity: HTTP (+ scheduler, 3 concurrent clients) == direct submit,",
        "gated in test_bench_gateway_byte_identity_under_concurrent_clients and",
        "tests/serving/{test_scheduler,test_server}.py.",
        "note: at this model size one fleet pass (~0.8 ms) costs less than one HTTP",
        "round trip (~1.4 ms), so cross-client coalescing only trims the boundary",
        "overhead here; the in-process batched-vs-sequential ratio above is the",
        "throughput micro-batching recovers as the per-pass model cost grows.",
    ]
    publish("serving.txt", "\n".join(lines))

    overhead = http_sequential.ms_per_request - direct_sequential.ms_per_request
    assert overhead < MAX_HTTP_OVERHEAD_MS_PER_REQUEST, (overhead, lines)
    assert coalesced < MAX_COALESCED_VS_SEQUENTIAL_HTTP * http_sequential.ms_per_request, lines
    assert (
        direct_sequential.ms_per_request
        > MIN_DIRECT_BATCHED_SPEEDUP * direct_batched.ms_per_request
    ), lines


def test_bench_cross_model_isolation_in_worker_mode():
    """Tentpole gate: a slow sweep on model A never blocks forecasts on B.

    Worker mode, one replica subprocess per model.  The old global gateway
    lock serialized everything — a B probe landing mid-sweep waited out the
    whole sweep (ratio ~1.0).  Per-model workers keep the worst probe to
    CPU-contention noise (measured ~0.03 of the sweep wall on the 1-core
    reference host); the 0.5 ceiling only catches a real return to
    cross-model blocking.
    """
    isolation = isolation_benchmark()
    lines = [
        "Cross-model isolation (worker mode: RankNet sweep on A vs single-request",
        "DeepAR forecasts on B; 1-core host)",
    ] + [f"{key:<24}{value:.4f}" for key, value in isolation.items()]
    publish("serving-isolation.txt", "\n".join(lines))

    assert isolation["probes_during_sweep"] >= 1, isolation
    assert isolation["blocking_ratio"] < MAX_ISOLATION_BLOCKING_RATIO, isolation
