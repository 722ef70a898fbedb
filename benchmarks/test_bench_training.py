"""Fused sequence-parallel training engine vs. the stepwise BPTT loop.

Times one synthetic training epoch of the Table IV configuration (2-layer,
40-unit LSTM, 60-lap context, 2-lap decoder, batch 64) on both training
paths of :class:`repro.models.deep.rankmodel.RankSeqModel` training:

* ``stepwise`` — the one-lap-at-a-time reference (``stepwise_loss`` over
  the cells' ``step``/``step_backward``, ``tests/reference/training.py``);
* ``fused`` — the full-sequence engine (``forward_sequence`` /
  ``backward_sequence``, fused ``MultiGaussianOutput`` head, vectorised
  ``gaussian_nll_seq``), plus its cache-free validation pass.

Correctness gate: per-parameter gradients and the loss of the fused path
must equal the stepwise path within 1e-10 on every batch of the epoch.

Throughput gates (conservative w.r.t. locally measured numbers so noisy CI
runners pass): fused training >= 1.1x stepwise, cache-free validation >=
1.8x the stepwise forward, and a full train+validation epoch >= 1.25x.
Measured on the dev box: ~1.3x training, ~2.9x validation, ~1.7x for the
combined epoch.  The issue's aspirational 4x epoch target is **not**
reachable at this configuration: at batch 64 the stepwise loop is already
BLAS-bound (the per-step GEMMs run at the same GFLOP/s as the fused ones),
so fusing eliminates the Python/ufunc dispatch overhead — a 1.3-2.9x win —
but cannot reduce the dominant GEMM and tanh work both paths share.  The
per-pass numbers are published as ``training.txt`` (see ``conftest.publish``).
"""

import time

import numpy as np

from reference.training import stepwise_loss
from repro.models.deep.rankmodel import RankSeqModel
from repro.profiling.training import synthetic_batches

from conftest import publish

N_BATCHES = 4
BATCH_SIZE = 64
ENCODER_LENGTH = 60
DECODER_LENGTH = 2
HIDDEN_DIM = 40
NUM_LAYERS = 2
N_COV = 9

MIN_TRAIN_SPEEDUP = 1.1
MIN_VAL_SPEEDUP = 1.8
MIN_EPOCH_SPEEDUP = 1.25
GRAD_PARITY = 1e-10


def _build_workload():
    rng = np.random.default_rng(0)
    batches = synthetic_batches(
        N_BATCHES, BATCH_SIZE, ENCODER_LENGTH + DECODER_LENGTH, N_COV, rng
    )
    model = RankSeqModel(
        num_covariates=N_COV,
        hidden_dim=HIDDEN_DIM,
        num_layers=NUM_LAYERS,
        encoder_length=ENCODER_LENGTH,
        decoder_length=DECODER_LENGTH,
        rng=0,
    )
    model.eval()
    return model, batches


def _epoch(model, batches, train_fn, val_fn):
    t0 = time.perf_counter()
    for batch in batches:
        model.zero_grad()
        train_fn(batch)
    train_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for batch in batches:
        val_fn(batch)
    return train_s, time.perf_counter() - t0


def test_bench_training_fused_vs_stepwise(benchmark):
    model, batches = _build_workload()
    instances = N_BATCHES * BATCH_SIZE

    # ------------------------------------------------------------------
    # correctness: fused loss and per-parameter gradients == stepwise
    # ------------------------------------------------------------------
    worst = 0.0
    for batch in batches:
        model.zero_grad()
        fused_loss = model.loss_and_backward(batch)
        fused_grads = {name: p.grad.copy() for name, p in model.named_parameters()}
        model.zero_grad()
        reference_loss = stepwise_loss(model, batch, with_backward=True)
        assert abs(fused_loss - reference_loss) < GRAD_PARITY
        for name, p in model.named_parameters():
            delta = float(np.abs(fused_grads[name] - p.grad).max())
            worst = max(worst, delta)
            assert delta < GRAD_PARITY, f"{name}: fused/stepwise gradient delta {delta:.2e}"

    # ------------------------------------------------------------------
    # throughput: one train + validation epoch per path (best of 3)
    # ------------------------------------------------------------------
    def fused_epoch():
        return _epoch(model, batches, model.loss_and_backward, model.validation_loss)

    def stepwise_epoch():
        return _epoch(
            model,
            batches,
            lambda b: stepwise_loss(model, b, with_backward=True),
            lambda b: stepwise_loss(model, b, with_backward=False),
        )

    fused_epoch()  # warm-up (BLAS initialisation, allocator)
    stepwise_runs = [stepwise_epoch() for _ in range(3)]
    fused_runs = [fused_epoch() for _ in range(3)]
    step_train = min(r[0] for r in stepwise_runs)
    step_val = min(r[1] for r in stepwise_runs)
    fused_train = min(r[0] for r in fused_runs)
    fused_val = min(r[1] for r in fused_runs)
    train_speedup = step_train / fused_train
    val_speedup = step_val / fused_val
    epoch_speedup = (step_train + step_val) / (fused_train + fused_val)

    rows = [
        ("stepwise train", step_train, 1.0),
        ("fused train", fused_train, train_speedup),
        ("stepwise val", step_val, 1.0),
        ("fused val", fused_val, val_speedup),
        ("stepwise epoch", step_train + step_val, 1.0),
        ("fused epoch", fused_train + fused_val, epoch_speedup),
    ]
    lines = [
        f"Training engine, Table IV config: {NUM_LAYERS}x{HIDDEN_DIM} LSTM, "
        f"encoder {ENCODER_LENGTH}, decoder {DECODER_LENGTH}, "
        f"{N_BATCHES} batches x {BATCH_SIZE} windows",
        f"worst fused-vs-stepwise parameter gradient delta: {worst:.3e}",
        f"{'pass':<16}{'wall_ms':>10}{'windows/s':>12}{'speedup':>9}",
    ]
    for name, wall, speedup in rows:
        lines.append(
            f"{name:<16}{1e3 * wall:>10.1f}{instances / wall:>12.1f}{speedup:>9.2f}"
        )
    text = "\n".join(lines)
    publish("training.txt", text)

    assert train_speedup >= MIN_TRAIN_SPEEDUP, (
        f"fused training only {train_speedup:.2f}x faster than stepwise"
    )
    assert val_speedup >= MIN_VAL_SPEEDUP, (
        f"cache-free validation only {val_speedup:.2f}x faster than stepwise"
    )
    assert epoch_speedup >= MIN_EPOCH_SPEEDUP, (
        f"fused epoch only {epoch_speedup:.2f}x faster than stepwise"
    )

    # benchmark statistic: one fused train+validation epoch
    benchmark.pedantic(fused_epoch, rounds=1, iterations=1)


def test_bench_training_gru_backbone_parity(benchmark):
    """The GRU backbone rides the same fused engine: parity + a smoke timing."""
    rng = np.random.default_rng(1)
    batches = synthetic_batches(2, 32, 30, N_COV, rng)
    model = RankSeqModel(
        num_covariates=N_COV,
        hidden_dim=24,
        num_layers=2,
        encoder_length=28,
        decoder_length=2,
        rng=1,
        backbone="gru",
    )
    model.eval()
    for batch in batches:
        model.zero_grad()
        fused_loss = model.loss_and_backward(batch)
        fused_grads = {name: p.grad.copy() for name, p in model.named_parameters()}
        model.zero_grad()
        reference_loss = stepwise_loss(model, batch, with_backward=True)
        assert abs(fused_loss - reference_loss) < GRAD_PARITY
        for name, p in model.named_parameters():
            assert float(np.abs(fused_grads[name] - p.grad).max()) < GRAD_PARITY, name

    def fused_pass():
        for batch in batches:
            model.zero_grad()
            model.loss_and_backward(batch)

    benchmark.pedantic(fused_pass, rounds=1, iterations=1)
