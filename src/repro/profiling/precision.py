"""Low-precision compute tier: float32 / int8 decode vs. the float64 reference.

Completes the decode-path profiling picture for the precision knob
threaded through the kernels, the fleet engine and the wire protocol:
:mod:`repro.profiling.decode` times the fused decode at the default
(exact, float64) tier; this module measures the fused engine at
all three precision tiers on the same workload shapes:

* ``float64`` — the byte-identical reference tier (the determinism
  contract of the serving stack);
* ``float32`` — every decode buffer, GEMM and transcendental runs in
  single precision (half the memory traffic of the BLAS-bound GEMMs);
* ``int8`` — weights stored as per-output-channel symmetric int8 and
  dequantized once into float32 GEMM operands, so its runtime tracks the
  float32 tier while the artifact payload shrinks ~8x.

The low tiers are **error-bounded, not byte-identical**: all tiers draw
the same float64 noise from the same RNG streams, so trajectories line up
one-to-one and the table reports the worst-case per-trajectory rank
deviation and the worst-case deviation of per-request sample means
against float64.  ``benchmarks/test_bench_precision.py`` turns those
columns into gates.

Run as a module (``python -m repro.profiling.precision``) to print the
table and write the ``BENCH_precision.json`` sidecar; the
``bench-precision`` Makefile target and the CI bench-smoke job do exactly
that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..models.deep.rankmodel import RankSeqModel
from ..nn.precision import PRECISIONS
from ..serving.engine import FleetForecaster
from ..serving.requests import ForecastRequest, spawn_request_rngs
from .decode import DECODE_WORKLOADS, _build_workload
from .report import write_bench_json

__all__ = ["PrecisionMeasurement", "precision_breakdown"]


@dataclass
class PrecisionMeasurement:
    """Wall-clock and parity of one precision tier on one workload shape."""

    workload: str
    precision: str
    decode_ms: float
    trajectories: int
    speedup_vs_float64: float
    max_abs_rank_diff: float
    max_mean_rank_diff: float

    def as_row(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "precision": self.precision,
            "wall_ms": round(self.decode_ms, 2),
            "trajectories": self.trajectories,
            "speedup": round(self.speedup_vs_float64, 2),
            "max_abs_rank_diff": float(self.max_abs_rank_diff),
            "max_mean_rank_diff": float(self.max_mean_rank_diff),
        }


def precision_breakdown(
    encoder_length: int = 60,
    hidden_dim: int = 40,
    num_layers: int = 2,
    num_covariates: int = 9,
    n_origins: int = 2,
    backbone: str = "lstm",
    repeats: int = 3,
    workloads: Optional[Tuple[Tuple[str, int, int, int], ...]] = None,
    seed: int = 0,
) -> List[PrecisionMeasurement]:
    """Measure the fused decode engine at every precision tier.

    Each (workload, precision) pair is timed ``repeats`` times interleaved
    and the median is reported, so slow-host noise cancels out of the
    ratios.  Parity columns compare against the float64 samples of the
    same run shape: all tiers consume identical RNG streams, so the
    per-trajectory diff is meaningful (and stays small — the noise term
    is drawn in float64 on every tier).
    """
    measurements: List[PrecisionMeasurement] = []
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

        def run(precision: str) -> Tuple[float, np.ndarray]:
            engine = FleetForecaster(model, mode="exact", precision=precision)
            streams = spawn_request_rngs(
                np.random.default_rng(seed + 1), n_requests * n_origins
            )
            outputs = []
            for j, origin in enumerate(origins):
                outputs.extend(
                    engine.submit(
                        [
                            ForecastRequest(
                                targets[c][origin + 1 - encoder_length : origin + 1],
                                covariates[c][origin + 1 - encoder_length : origin + 1],
                                future,
                                n_samples=n_samples,
                                rng=streams[j * n_requests + c],
                                key=c,
                                origin=origin,
                            )
                            for c in range(n_requests)
                        ]
                    )
                )
            return engine.timings["decode_s"], np.stack(outputs)

        run("float64")  # warm the BLAS pools / allocator once
        times: Dict[str, List[float]] = {p: [] for p in PRECISIONS}
        samples: Dict[str, np.ndarray] = {}
        for _ in range(repeats):
            for precision in PRECISIONS:
                decode_s, out = run(precision)
                times[precision].append(decode_s)
                samples[precision] = out
        reference = samples["float64"]
        ref_means = reference.mean(axis=1)
        f64_decode = float(np.median(times["float64"]))
        trajectories = n_requests * n_samples * n_origins
        for precision in PRECISIONS:
            decode_s = float(np.median(times[precision]))
            diff = np.abs(samples[precision] - reference)
            mean_diff = np.abs(samples[precision].mean(axis=1) - ref_means)
            measurements.append(
                PrecisionMeasurement(
                    workload=label,
                    precision=precision,
                    decode_ms=1e3 * decode_s,
                    trajectories=trajectories,
                    speedup_vs_float64=f64_decode / max(decode_s, 1e-12),
                    max_abs_rank_diff=float(diff.max()),
                    max_mean_rank_diff=float(mean_diff.max()),
                )
            )
    return measurements


def _main() -> None:  # pragma: no cover - exercised by the CI bench smoke job
    rows = [m.as_row() for m in precision_breakdown()]
    print("Precision tiers (2x40 LSTM, encoder 60; fused decode phase, median of 3)")
    print(
        f"{'workload':<20}{'precision':<10}{'wall_ms':>9}{'speedup':>9}"
        f"{'max|Δrank|':>12}{'max|Δmean|':>12}"
    )
    for row in rows:
        print(
            f"{row['workload']:<20}{row['precision']:<10}{row['wall_ms']:>9.1f}"
            f"{row['speedup']:>9.2f}{row['max_abs_rank_diff']:>12.2e}"
            f"{row['max_mean_rank_diff']:>12.2e}"
        )
    path = write_bench_json("precision", rows, extra={"decode": "fused"})
    print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover
    _main()
