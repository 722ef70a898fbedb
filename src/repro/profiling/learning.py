"""Continuous-learning loop benchmark: per-stage wall clock + loop gates.

Times every stage of the :mod:`repro.learning` loop in-process on a tiny
synthetic workload — accumulate, window, retrain, kill+resume, shadow
evaluation, promote/rollback — and re-asserts the two determinism gates
while it is at it:

* **bit-exact resume** — an interrupted-then-resumed retraining job's
  artifact ``sha256`` equals an uninterrupted run's;
* **byte-identical rollback** — after promote + rollback, forecasting
  through the ``champion`` alias reproduces the pre-promotion champion's
  samples bitwise.

Run as a module (``python -m repro.profiling.learning``); the
``bench-learn`` Makefile target does exactly that.  Writes
``BENCH_learning.json`` next to the other profiling sidecars.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import replace
from typing import Dict, List

import numpy as np

from ..artifacts import ArtifactStore
from ..evaluation.report import format_table
from ..learning import (
    PromotionManager,
    RetrainJob,
    ShadowEvaluator,
    TelemetryAccumulator,
)
from ..simulation import RaceSimulator, track_for_year

__all__ = ["learning_benchmark"]

TINY = {
    "encoder_length": 12,
    "decoder_length": 2,
    "hidden_dim": 8,
    "num_layers": 1,
    "epochs": 2,
    "batch_size": 32,
    "max_train_windows": 120,
}

ALIAS = "champion"


def _timed(rows: List[Dict[str, object]], stage: str, fn, **detail):
    start = time.perf_counter()
    result = fn()
    wall_ms = round(1e3 * (time.perf_counter() - start), 2)
    rows.append({"stage": stage, "wall_ms": wall_ms, **detail})
    return result


def _batch(forecaster, series, model: str):
    from ..serving.requests import NamedForecastRequest

    return [
        NamedForecastRequest(model, request)
        for i in range(3)
        for request in forecaster._forecast_requests(series, 20 + i, 2, 7, 11 + i)
    ]


def learning_benchmark(root: str):
    """Run the loop once; returns (rows, gates)."""
    from ..serving import ForecastService

    rows: List[Dict[str, object]] = []
    acc = TelemetryAccumulator(os.path.join(root, "accumulator"))
    store = ArtifactStore(os.path.join(root, "store"))

    def _accumulate():
        track = replace(track_for_year("Indy500", 2018), total_laps=45, num_cars=8)
        for seed in (3, 4, 5):
            race = RaceSimulator(track, event="Indy500", year=2019, seed=seed).run()
            acc.add_race(race, source=f"bench(seed={seed})")

    _timed(rows, "accumulate", _accumulate, races=3)
    window = _timed(rows, "window", lambda: acc.build_window(holdout=1), holdout=1)

    def _retrain(name, seed, job_dir=None, stop_after=None, resume=False):
        return RetrainJob(
            store, acc, window.window_id, name,
            family="deepar", config={**TINY, "seed": seed},
            job_dir=job_dir, resume=resume,
        ).run(stop_after_epochs=stop_after)

    _timed(rows, "retrain champion", lambda: _retrain("champ", 5), epochs=TINY["epochs"])
    job_dir = os.path.join(root, "job-a")
    _timed(
        rows, "retrain candidate (killed)",
        lambda: _retrain("cand-a", 6, job_dir=job_dir, stop_after=1),
        epochs=1,
    )
    resumed = _timed(
        rows, "retrain candidate (resumed)",
        lambda: _retrain("cand-a", 6, job_dir=job_dir, resume=True),
        epochs=TINY["epochs"],
    )
    uninterrupted = _retrain("cand-b", 6, job_dir=os.path.join(root, "job-b"))
    bit_exact = resumed["sha256"] == uninterrupted["sha256"]

    report = _timed(
        rows, "shadow eval",
        lambda: ShadowEvaluator(store, n_samples=20, stride=6).evaluate(
            "cand-a", "champ", window.holdout_races(), seed=7
        ),
        samples=20,
    )

    # promote/rollback byte-identity over the in-process service
    service = ForecastService(store, capacity=4)
    manager = PromotionManager(store)
    series = window.holdout_series()[0]
    champ = store.load_model("champ")
    manager.promote(ALIAS, "champ", note="bench bootstrap")
    baseline = service.submit(_batch(champ, series, ALIAS))
    _timed(
        rows, "promote",
        lambda: manager.promote(ALIAS, "cand-a", note="bench winner"),
    )
    service.submit(_batch(champ, series, ALIAS))  # alias now serves the candidate
    _timed(rows, "rollback", lambda: manager.rollback(ALIAS))
    after = service.submit(_batch(champ, series, ALIAS))
    rollback_identical = all(
        np.array_equal(a, b) for a, b in zip(after, baseline)
    )

    gates = {
        "bit_exact_resume": bool(bit_exact),
        "rollback_byte_identical": bool(rollback_identical),
        "shadow_recommend": bool(report.recommend),
        "shadow_mae_delta": report.deltas["mae"],
    }
    return rows, gates


def main() -> int:
    from .report import write_bench_json

    with tempfile.TemporaryDirectory() as root:
        rows, gates = learning_benchmark(root)
    print(format_table(rows, title="Continuous-learning loop: stage timings"))
    print(f"\nbit-exact resume: {gates['bit_exact_resume']}")
    print(f"rollback byte-identical: {gates['rollback_byte_identical']}")
    print(
        f"shadow mae delta: {gates['shadow_mae_delta']:+.4f} "
        f"(recommend={gates['shadow_recommend']})"
    )
    print(f"wrote {write_bench_json('learning', rows, extra=gates)}")
    return 0 if gates["bit_exact_resume"] and gates["rollback_byte_identical"] else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
