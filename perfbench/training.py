"""Training workload: two seeded ``fit()`` calls per op, in-process.

One ``train`` op fits ``RankNetForecaster(variant="mlp")`` (windows, LSTM
BPTT, Adam, and the PitModel MLP's small-batch steps) and then
``TransformerForecaster(variant="oracle")`` (attention, no PitModel), each
for one epoch on the same fixed simulated races under the same window
budget.  Every op in a run repeats the identical fits, so op-to-op spread
is the host's noise, not the inputs', and each op's parameter digest must
equal the first op's.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import time
from dataclasses import replace
from typing import Dict, List

from . import report
from .checks import param_digest
from .tracing import Ops, Tracer, per_op_totals, self_time

#: the fixed races every training op fits on: (event, year, simulator seed)
RACES = (("Indy500", 2018, 101), ("Iowa", 2018, 102))
RACE_LAPS = 60
RACE_CARS = 20
#: Table-IV-shaped backbone, one epoch under a small window budget
FIT = dict(
    encoder_length=30,
    decoder_length=2,
    hidden_dim=40,
    num_layers=2,
    epochs=1,
    batch_size=64,
    max_train_windows=128,
)
SETUP_SPAWNS = 3  # timed set-up probes per run (after one untimed warm-up)
WARMUP_S = 1.0  # untimed fits before the timed loop


def build_series():
    """Simulate the fixed races and build their feature series."""
    from repro.data.features import build_race_features
    from repro.simulation import RaceSimulator, track_for_year

    series = []
    for event, year, seed in RACES:
        track = replace(track_for_year(event, year), total_laps=RACE_LAPS, num_cars=RACE_CARS)
        series.extend(build_race_features(RaceSimulator(track, event=event, year=year, seed=seed).run()))
    return series


def make_forecasters(seed: int):
    """The op's two forecasters, keyed by the prefix of their parameters."""
    from repro.models import RankNetForecaster, TransformerForecaster

    return {
        "ranknet": RankNetForecaster(variant="mlp", seed=seed, **FIT),
        "transformer": TransformerForecaster(variant="oracle", seed=seed, **FIT),
    }


def fitted_params(forecaster, prefix: str) -> Dict[str, object]:
    arrays = {f"{prefix}/model/{k}": v for k, v in forecaster.model.state_dict().items()}
    if forecaster.pit_model is not None:
        arrays.update({f"{prefix}/pit/{k}": v for k, v in forecaster.pit_model.net.state_dict().items()})
    return arrays


def measure_setup(root: str) -> List[float]:
    """Wall time of fresh interpreters importing and building the races."""
    env = report.subprocess_env(root)
    samples = []
    for attempt in range(SETUP_SPAWNS + 1):  # the first warms the page cache
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.training", "--probe"],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            with report.watchdog(process, 60.0):
                line = process.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            process.stdout.close()
            process.wait(timeout=60)
        if process.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {process.returncode})")
        if attempt:
            samples.append(elapsed)
    return samples


def _fit_once(seed: int, series):
    arrays = {}
    for prefix, forecaster in make_forecasters(seed).items():
        forecaster.fit(series)
        arrays.update(fitted_params(forecaster, prefix))
    return param_digest(arrays)


def _loop(fit, seconds: float, reference: str, ops: Ops) -> float:
    """Identical fits for ``seconds``, each checked against ``reference``
    (the parameter digest of the run's first fit); returns the wall time."""
    first = ops.attempted
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or ops.attempted == first:
        try:
            digest = ops.call(fit)
        except Exception as exc:  # a failed op counts against ops_ok_share
            print(f"fit failed: {exc!r}", file=sys.stderr)
            continue
        ops.ok += digest == reference
    return time.perf_counter() - started


def _install_tracer(tracer: Tracer) -> None:
    from repro.data import windows
    from repro.models.deep import ranknet
    from repro.models.deep.pitmodel import PitModelMLP
    from repro.models.deep.rankmodel import RankSeqModel
    from repro.models.deep.transformer import TransformerSeqModel
    from repro.nn import Adam, Trainer
    from repro.nn.attention import MultiHeadAttention

    tracer.wrap(windows, "make_windows", "data.make_windows")
    # the forecasters call the name they imported
    tracer.wrap(ranknet, "make_windows", "data.make_windows")
    tracer.wrap(Trainer, "fit", "trainer.fit")
    tracer.wrap(RankSeqModel, "loss_and_backward", "nn.loss_and_backward")
    tracer.wrap(TransformerSeqModel, "loss_and_backward", "nn.loss_and_backward")
    tracer.wrap(Adam, "step", "nn.optimizer_step")
    tracer.wrap(PitModelMLP, "fit", "pit.fit")
    tracer.wrap(MultiHeadAttention, "forward", "attention.forward")
    tracer.wrap(MultiHeadAttention, "backward", "attention.backward")


def layer_metrics(ops: Ops) -> Dict[str, dict]:
    """Per-layer metrics over the traced ops (per-op medians).  An op runs
    batches of two models, so the per-batch times are each op's mean."""
    spans = ops.tracer.spans
    traced = ops.traced_ops()
    n = len(traced)

    def per_op(name, keep=lambda span: True):
        totals = per_op_totals([s for s in spans if keep(s)], name)
        return [totals.get(op, 0.0) for op in traced]

    def under(ancestor):
        def keep(span):
            while span.parent is not None:
                span = spans[span.parent]
                if span.name == ancestor:
                    return True
            return False

        return keep

    def count(name, keep=lambda span: True):
        return [sum(1 for s in spans if s.op == op and s.name == name and keep(s)) for op in traced]

    def per_batch_ms(totals, counts):
        return report.median_ms(t / c for t, c in zip(totals, counts) if c)

    batches = count("nn.loss_and_backward")
    steps = count("nn.optimizer_step", under("trainer.fit"))
    pit_steps = count("nn.optimizer_step", under("pit.fit"))
    trainer_self = self_time(spans, "trainer.fit", ("nn.loss_and_backward", "nn.optimizer_step"))
    children = [per_op(name) for name in ("trainer.fit", "pit.fit", "data.make_windows")]
    forecaster_self = [latency - sum(parts) for latency, *parts in zip(ops.latencies(True), *children)]
    return {
        "data.make_windows_ms": report.metric(report.median_ms(per_op("data.make_windows")), "ms", n),
        "trainer.fit_ms": report.metric(report.median_ms(per_op("trainer.fit")), "ms", n),
        "trainer.self_ms": report.metric(report.median_ms(trainer_self.values()), "ms", n),
        "nn.loss_and_backward_ms": report.metric(
            per_batch_ms(per_op("nn.loss_and_backward"), batches), "ms", sum(batches)
        ),
        "nn.optimizer_step_ms": report.metric(
            per_batch_ms(per_op("nn.optimizer_step", under("trainer.fit")), steps), "ms", sum(steps)
        ),
        "nn.batches": report.metric(report.median(batches) if n else 0.0, "count", n),
        "pit.fit_ms": report.metric(report.median_ms(per_op("pit.fit")), "ms", n),
        "pit.steps": report.metric(report.median(pit_steps) if n else 0.0, "count", n),
        "attention.forward_ms": report.metric(report.median_ms(per_op("attention.forward")), "ms", n),
        "attention.backward_ms": report.metric(report.median_ms(per_op("attention.backward")), "ms", n),
        "forecaster.self_ms": report.metric(report.median_ms(forecaster_self), "ms", n),
    }


def run(root: str, workload: str, seed: int, seconds: float, trace: bool, workdir: str):
    """One benchmark run; returns (correct, attempted, failed, metrics)."""
    setup = None if trace else measure_setup(root)
    series = build_series()
    fit = functools.partial(_fit_once, seed, series)
    # untimed warm-up: lazy imports and first-call allocations; its first
    # fit's digest is the reference every later fit must reproduce
    reference = fit()
    warmup = Ops()
    _loop(fit, WARMUP_S, reference, warmup)
    # traced run: every other fit traced, for the per-layer metrics and
    # the tracing overhead
    ops = Ops(install=_install_tracer) if trace else Ops()
    wall = _loop(fit, seconds, reference, ops)
    ok, attempted = ops.ok + warmup.ok, ops.attempted + warmup.attempted
    if trace:
        metrics = layer_metrics(ops)
        metrics["trace.overhead_ms"] = report.trace_overhead(ops)
        metrics = report.per_layer(metrics)
    else:
        metrics = report.end_to_end(ops.latencies(), wall, setup, report.self_peak_rss_mb(), ok, attempted)
    return ok == attempted, attempted, attempted - ok, metrics


def _probe() -> int:
    """Set-up probe: what a fresh process must do before its first fit."""
    make_forecasters(0)
    build_series()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        sys.exit(_probe())
    print(f"usage: {os.path.basename(sys.argv[0])} --probe", file=sys.stderr)
    sys.exit(2)
