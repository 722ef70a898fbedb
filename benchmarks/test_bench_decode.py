"""Fused Monte-Carlo decode engine vs. the stepwise reference loop.

Two guarantees are gated on the Table V fleet configuration (33 cars x 100
Monte-Carlo samples, 2-layer 40-unit LSTM):

* **byte-identity** — the engine's fused block-RNG decode reproduces the
  stepwise per-lap reference (the pre-fusion ``run_group`` loop, kept
  verbatim in ``tests/reference/decode.py``) bit for bit, in both
  ``exact`` and ``carry`` warm-up modes, with random recurrent biases;
* **speedup** — the fused decode phase is no slower on the Table V shape
  and measurably faster on the decode-heavy shapes (the Fig. 9 long
  horizon and the strategy-sweep fan-out), with the measured breakdown
  published as ``decode.txt`` (see ``conftest.publish``).

The issue's headline target for this engine was a 3x decode speedup at the
Table V shape.  Like the training engine's 4x target (see
``test_bench_training.py``), that is unreachable on a single-core
BLAS-bound host: the per-step cost there is dominated by the recurrent
``stable_matmul`` GEMMs and the dense transcendentals, which the two paths
share bit-for-bit by construction — the fused engine can only delete the
Python-level RNG loops, per-lap allocations and masked sigmoid scatters
around them.  Those deletions are what the decode-heavy gates measure
(~1.3-1.5x here; larger on multi-core hosts where the shared GEMMs shrink
but the Python overhead does not).  The gates below are set at conservative
floors of the measured medians so they stay robust on noisy runners.
"""

import numpy as np

from reference.decode import randomize_biases, stepwise_forecaster
from repro.models.deep.rankmodel import RankSeqModel
from repro.profiling.decode import decode_breakdown
from repro.serving import FleetForecaster, ForecastRequest, spawn_request_rngs

from conftest import publish

N_CARS = 33
N_SAMPLES = 100
N_ORIGINS = 3
ENCODER_LENGTH = 60
HORIZON = 2
N_COV = 9

# conservative floors of the measured medians (see module docstring); the
# Table V shape is GEMM-bound so its fused ratio hovers around parity
# (0.94-1.06x observed across runs of this host) — the gate only catches a
# real regression, not timing noise
MAX_TABLEV_SLOWDOWN = 1.20
MIN_DECODE_HEAVY_SPEEDUP = 1.10


def _build_workload(horizon=HORIZON, n_origins=N_ORIGINS):
    rng = np.random.default_rng(0)
    n_laps = ENCODER_LENGTH + n_origins + horizon + 1
    targets = [
        np.clip(10 + np.cumsum(rng.normal(0, 0.8, n_laps)), 1, 33) for _ in range(N_CARS)
    ]
    covs = [rng.normal(size=(n_laps, N_COV)) for _ in range(N_CARS)]
    model = RankSeqModel(num_covariates=N_COV, hidden_dim=40, num_layers=2,
                         encoder_length=ENCODER_LENGTH, decoder_length=horizon, rng=0)
    origins = [ENCODER_LENGTH + i for i in range(n_origins)]
    return model, targets, covs, origins


def _run(model, targets, covs, origins, mode, decode, horizon=HORIZON):
    if decode == "stepwise":
        engine = stepwise_forecaster(model, mode=mode)
    else:
        engine = FleetForecaster(model, mode=mode)
    future = np.zeros((horizon, N_COV))
    streams = spawn_request_rngs(np.random.default_rng(42), N_CARS * len(origins))
    results = []
    for j, origin in enumerate(origins):
        results.extend(
            engine.submit(
                [
                    ForecastRequest(
                        targets[car][origin + 1 - ENCODER_LENGTH : origin + 1],
                        covs[car][origin + 1 - ENCODER_LENGTH : origin + 1],
                        future, n_samples=N_SAMPLES,
                        rng=streams[j * N_CARS + car], key=car, origin=origin,
                    )
                    for car in range(N_CARS)
                ]
            )
        )
    return results


def test_bench_decode_byte_identity(benchmark):
    """Fused == stepwise bit for bit on the Table V fleet, both modes."""
    model, targets, covs, origins = _build_workload()
    randomize_biases(model)

    def check_all():
        for mode in ("exact", "carry"):
            stepwise = _run(model, targets, covs, origins, mode, "stepwise")
            fused = _run(model, targets, covs, origins, mode, "fused")
            for a, b in zip(stepwise, fused):
                assert a.shape == b.shape == (N_SAMPLES, HORIZON)
                np.testing.assert_array_equal(a, b)
        return True

    assert benchmark.pedantic(check_all, rounds=1, iterations=1)


def test_bench_decode_speedup(benchmark):
    """Measured decode-phase breakdown + the conservative speedup gates."""
    engines = {
        "stepwise": lambda model: stepwise_forecaster(model, mode="exact"),
        "fused": lambda model: FleetForecaster(model, mode="exact"),
    }
    rows = [m.as_row() for m in benchmark.pedantic(
        decode_breakdown, kwargs=dict(repeats=3, engines=engines), rounds=1, iterations=1
    )]
    stepwise_ms = {row["workload"]: row["decode_ms"] for row in rows if row["engine"] == "stepwise"}
    for row in rows:
        row["speedup_vs_stepwise"] = stepwise_ms[row["workload"]] / max(row["decode_ms"], 1e-12)

    lines = [
        "Decode engine breakdown (2x40 LSTM, encoder 60; decode phase only, "
        "median of 3 interleaved runs)",
        "fused == stepwise byte-identical in exact and carry modes "
        "(gated in test_bench_decode_byte_identity)",
        f"{'workload':<20}{'engine':<10}{'warmup_ms':>11}{'decode_ms':>11}{'speedup':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<20}{row['engine']:<10}{row['warmup_ms']:>11.1f}"
            f"{row['decode_ms']:>11.1f}{row['speedup_vs_stepwise']:>9.2f}"
        )
    lines.append(
        "note: the issue's 3x Table V target is GEMM/transcendental-bound-unreachable "
        "on a 1-core host — both paths share those kernels bit-for-bit; the fused "
        "gains come from the deleted Python RNG loops, per-lap allocations and "
        "masked scatters, which grow with horizon and request count."
    )
    text = "\n".join(lines)
    publish("decode.txt", text)

    speedups = {
        (row["workload"], row["engine"]): row["speedup_vs_stepwise"] for row in rows
    }
    tablev = speedups[("tableV 33x100 h2", "fused")]
    assert tablev >= 1.0 / MAX_TABLEV_SLOWDOWN, (
        f"fused decode regressed on the Table V shape: {tablev:.2f}x"
    )
    for workload in ("fig9   33x100 h10", "sweep  462x5  h10"):
        got = speedups[(workload, "fused")]
        assert got >= MIN_DECODE_HEAVY_SPEEDUP, (
            f"fused decode only {got:.2f}x on {workload!r} "
            f"(gate {MIN_DECODE_HEAVY_SPEEDUP}x)"
        )
