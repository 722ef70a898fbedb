"""Training-path breakdown of the fused sequence engine.

Mirrors :mod:`repro.profiling.inference` for the other half of the
pipeline: Algorithm 1 training epochs on a synthetic Table IV-style
workload are timed on two passes

* ``fused`` — the full-sequence engine (``forward_sequence`` /
  ``backward_sequence`` + fused Gaussian head + vectorised NLL);
* ``fused-eval`` — the cache-free validation pass (forward only, no BPTT
  tensors).

Two more rows time the per-step overhead around the backbone on one
simulated race (60 laps, 20 cars, the ``train`` benchmark's shape):

* ``pit-fit`` — one PitModel MLP training step (forward, backward,
  gradient clip, Adam), in microseconds;
* ``make-windows`` — one ``make_windows`` call (encoder 30, decoder 2),
  in milliseconds.

Each row is the median over repeats, with the quartiles.

The comparison against the stepwise reference BPTT
(``tests/reference/training.py``) is gated in
``benchmarks/test_bench_training.py``.

Run as a module (``python -m repro.profiling.training``) to print the
table; the ``bench-train`` Makefile target and the CI bench-smoke job do
exactly that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List

import numpy as np

from ..data import build_race_features, make_windows
from ..models.deep.pitmodel import PitModelMLP
from ..models.deep.rankmodel import RankSeqModel
from ..simulation import RaceSimulator, track_for_year

__all__ = [
    "TrainingMeasurement",
    "training_breakdown",
    "synthetic_batches",
    "step_overhead_breakdown",
]


@dataclass
class TrainingMeasurement:
    """Wall-clock of one training strategy over the synthetic epoch."""

    strategy: str
    wall_s: float
    instances: int

    def as_row(self) -> Dict[str, object]:
        return {
            "strategy": self.strategy,
            "wall_ms": round(1e3 * self.wall_s, 2),
            "instances": self.instances,
            "instances_per_s": round(self.instances / max(self.wall_s, 1e-12), 1),
        }


def synthetic_batches(
    n_batches: int,
    batch_size: int,
    total_len: int,
    num_covariates: int,
    rng: np.random.Generator,
) -> List[Dict[str, np.ndarray]]:
    """Random-walk rank windows shaped like the Table IV training batches."""
    batches = []
    for _ in range(n_batches):
        steps = rng.normal(0.0, 0.8, size=(batch_size, total_len))
        target = np.clip(10.0 + np.cumsum(steps, axis=1), 1.0, 33.0)
        batches.append(
            {
                "target": target,
                "covariates": rng.normal(size=(batch_size, total_len, num_covariates)),
                "weight": np.where(rng.random(batch_size) < 0.3, 9.0, 1.0),
            }
        )
    return batches


def training_breakdown(
    n_batches: int = 4,
    batch_size: int = 64,
    encoder_length: int = 60,
    decoder_length: int = 2,
    hidden_dim: int = 40,
    num_layers: int = 2,
    num_covariates: int = 9,
    backbone: str = "lstm",
    seed: int = 0,
) -> List[TrainingMeasurement]:
    """Measure the fused training and validation passes on one synthetic epoch.

    Defaults follow the Table IV configuration: a 2-layer, 40-unit LSTM
    over 60-lap context windows with a 2-lap decoder.
    """
    rng = np.random.default_rng(seed)
    total_len = encoder_length + decoder_length
    batches = synthetic_batches(n_batches, batch_size, total_len, num_covariates, rng)
    model = RankSeqModel(
        num_covariates=num_covariates,
        hidden_dim=hidden_dim,
        num_layers=num_layers,
        encoder_length=encoder_length,
        decoder_length=decoder_length,
        rng=seed,
        backbone=backbone,
    )
    model.eval()
    instances = n_batches * batch_size

    def run_fused() -> float:
        t0 = time.perf_counter()
        for batch in batches:
            model.zero_grad()
            model.loss_and_backward(batch)
        return time.perf_counter() - t0

    def run_fused_eval() -> float:
        t0 = time.perf_counter()
        for batch in batches:
            model.validation_loss(batch)
        return time.perf_counter() - t0

    # warm-up once so BLAS thread pools / allocators do not skew the timing
    model.zero_grad()
    model.loss_and_backward(batches[0])
    model.zero_grad()

    timings = [("fused", run_fused()), ("fused-eval", run_fused_eval())]
    return [
        TrainingMeasurement(strategy=name, wall_s=wall, instances=instances)
        for name, wall in timings
    ]


def _median_and_quartiles(samples: List[float]) -> Dict[str, object]:
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": round(float(median), 3), "iqr": [round(float(q1), 3), round(float(q3), 3)]}


def step_overhead_breakdown(repeats: int = 7, seed: int = 0) -> List[Dict[str, object]]:
    """``pit-fit`` (us per PitModel step) and ``make-windows`` (ms per call)
    rows on one simulated race; see the module docstring."""
    track = replace(track_for_year("Indy500", 2018), total_laps=60, num_cars=20)
    race = RaceSimulator(track, event="Indy500", year=2018, seed=seed).run()
    series = build_race_features(race)

    step_us: List[float] = []
    steps = 0
    for _ in range(repeats):
        pit = PitModelMLP(epochs=10, seed=seed)
        n = len(pit._build_dataset(series)[1])
        steps = pit.epochs * -(-n // pit.batch_size)
        t0 = time.perf_counter()
        pit.fit(series)
        step_us.append((time.perf_counter() - t0) / steps * 1e6)

    windows_ms: List[float] = []
    windows = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        windows = len(make_windows(series, encoder_length=30, decoder_length=2,
                                   rank_change_loss_weight=9.0))
        windows_ms.append((time.perf_counter() - t0) * 1e3)

    return [
        {"workload": "pit-fit", "unit": "us/step", "steps": steps, "repeats": repeats,
         **_median_and_quartiles(step_us)},
        {"workload": "make-windows", "unit": "ms/call", "windows": windows, "repeats": repeats,
         **_median_and_quartiles(windows_ms)},
    ]


def _main() -> None:  # pragma: no cover - exercised by the CI bench smoke job
    from .report import write_bench_json

    rows = [{**m.as_row(), "workload": m.strategy} for m in training_breakdown()]
    header = f"{'strategy':<12}{'wall_ms':>10}{'inst/s':>10}"
    print("Training breakdown (Table IV config: 2x40 LSTM, encoder 60, decoder 2)")
    print(header)
    for row in rows:
        print(
            f"{row['strategy']:<12}{row['wall_ms']:>10.1f}{row['instances_per_s']:>10.1f}"
        )
    overhead = step_overhead_breakdown()
    print("Per-step overhead (simulated race, 60 laps x 20 cars): median [IQR]")
    for row in overhead:
        low, high = row["iqr"]
        print(f"{row['workload']:<14}{row['median']:>10.1f} {row['unit']:<8} [{low:.1f}-{high:.1f}]")
    print(f"wrote {write_bench_json('training', rows + overhead)}")


if __name__ == "__main__":  # pragma: no cover
    _main()
