"""Tests of the benchmark's own arithmetic and checks (no timing, no server)."""

import numpy as np
import pytest

from perfbench import report
from perfbench.checks import arrays_match, emitted_match, param_digest
from perfbench.serving import gemm_row_fill
from perfbench.training import layer_metrics
from perfbench.tracing import Ops, Span, Tracer, covered, self_time


# ----------------------------------------------------------------------
# the tail rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [100, 101, 500, 10_000])
def test_tail_is_p90_from_100_ops(n):
    assert report.tail_percentile(n) == 90.0


@pytest.mark.parametrize("n, expected", [(99, 89), (60, 83), (40, 75), (21, 52), (20, 50)])
def test_tail_below_100_ops_is_highest_percentile_with_ten_beyond(n, expected):
    p = report.tail_percentile(n)
    assert p == expected
    assert n * (1 - p / 100) >= 10 - 1e-9
    # one percent higher would leave fewer than ten samples beyond it
    assert n * (1 - (p + 1) / 100) < 10


@pytest.mark.parametrize("n", [1, 5, 19])
def test_tail_never_drops_below_the_median(n):
    assert report.tail_percentile(n) == 50.0


def test_end_to_end_records_the_tail_percentile_and_sample_counts():
    latencies = [i / 1000 for i in range(1, 61)]  # 1..60 ms, 60 ops
    metrics = report.end_to_end(latencies, 3.0, [1.0, 2.0, 4.0], 100.0, ok=59, attempted=60)
    assert metrics["op_tail_ms"]["percentile"] == 83.0
    assert metrics["op_tail_ms"]["value"] == pytest.approx(np.percentile(np.arange(1, 61), 83))
    assert metrics["op_p50_ms"]["value"] == pytest.approx(30.5)
    assert metrics["op_p50_ms"]["samples"] == 60
    assert metrics["setup_s"]["value"] == 2.0
    assert metrics["ops_per_s"]["value"] == 20.0
    assert metrics["ops_ok_share"]["value"] == pytest.approx(59 / 60)


def test_per_layer_fills_unmeasured_metrics_and_rejects_unknown_ones():
    filled = report.per_layer({"trainer.fit_ms": report.metric(5.0, "ms", 3)})
    assert list(filled) == list(report.PER_LAYER)
    assert filled["trainer.fit_ms"]["value"] == 5.0
    assert filled["engine.decode_ms"]["value"] == 0.0
    with pytest.raises(KeyError):
        report.per_layer({"not.a_metric": report.metric(1.0, "ms")})
    with pytest.raises(ValueError):
        report.per_layer({"trainer.fit_ms": report.metric(1.0, "s")})


def test_trace_overhead_sums_traced_minus_untraced_medians_over_op_sets():
    handles, observes = Ops(), Ops()
    handles.records = [(0, 0.010, False), (1, 0.012, True), (2, 0.011, False), (3, 0.013, True)]
    observes.records = [(0, 0.030, False), (1, 0.031, True)]
    overhead = report.trace_overhead(handles, observes)
    assert overhead["value"] == pytest.approx((0.0125 - 0.0105) * 1e3 + 1.0)
    assert overhead["samples"] == 3
    # a set without both kinds of op adds nothing
    assert report.trace_overhead(Ops())["value"] == 0.0


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_covered_merges_overlaps_and_clips_to_the_interval():
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0)]) == 4.0
    assert covered((0.0, 10.0), [(-2.0, 1.0), (9.0, 12.0)]) == 2.0
    assert covered((0.0, 10.0), [(1.0, 9.0), (2.0, 3.0)]) == 8.0
    assert covered((0.0, 10.0), [(10.0, 11.0)]) == 0.0


def test_self_time_subtracts_children_of_the_same_op_only():
    spans = [
        Span("handle", 0.0, 10.0, op=0, parent=None),
        Span("submit", 2.0, 8.0, op=0, parent=None),  # ran on another thread
        Span("handle", 20.0, 25.0, op=1, parent=None),
        Span("submit", 2.0, 8.0, op=1, parent=None),  # outside op 1's handle
        Span("submit", 21.0, 22.0, op=1, parent=None),
    ]
    assert self_time(spans, "handle", ("submit",)) == {0: 4.0, 1: 4.0}


def test_tracer_records_nesting_and_restores_the_original():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["outer"]
    with Tracer() as tracer:
        tracer.wrap(Layer, "outer", "outer")
        tracer.wrap(Layer, "inner", "inner")
        tracer.op = 7
        assert Layer().outer() == 2
    assert Layer.__dict__["outer"] is original
    outer, inner = tracer.spans
    assert (outer.name, inner.name) == ("outer", "inner")
    assert inner.parent == 0 and outer.parent is None
    assert outer.op == inner.op == 7
    assert outer.start <= inner.start <= inner.end <= outer.end
    own = self_time(tracer.spans, "outer", ("inner",))[7]
    assert own == pytest.approx(outer.duration - inner.duration)


def test_training_layers_average_batches_of_both_models_per_op():
    ops = Ops(install=lambda tracer: None)
    ops.records = [(0, 1.0, False), (1, 0.020, True), (3, 0.040, True)]
    spans = []

    def span(name, start, end, op, parent=None):
        spans.append(Span(name, start, end, op, parent))
        return len(spans) - 1

    for op, scale in ((1, 1e-3), (3, 2e-3)):
        # two fits: a RankNet fit with a pit model, then a Transformer fit
        fit = span("trainer.fit", 0, 6 * scale, op)
        span("nn.loss_and_backward", 0, 1 * scale, op, fit)
        span("nn.optimizer_step", 1 * scale, 1.5 * scale, op, fit)
        pit = span("pit.fit", 6 * scale, 8 * scale, op)
        for k in range(3):
            span("nn.optimizer_step", (6 + k / 2) * scale, (6.25 + k / 2) * scale, op, pit)
        fit = span("trainer.fit", 8 * scale, 16 * scale, op)
        span("nn.loss_and_backward", 8 * scale, 13 * scale, op, fit)
        span("nn.optimizer_step", 13 * scale, 13.5 * scale, op, fit)
        span("attention.forward", 8 * scale, 10 * scale, op)
    ops.tracer.spans = spans
    metrics = layer_metrics(ops)
    # per op: (1 + 5) / 2 batches = 3 units; units of 1 ms and 2 ms
    assert metrics["nn.loss_and_backward_ms"]["value"] == pytest.approx(4.5)
    assert metrics["nn.loss_and_backward_ms"]["samples"] == 4
    # pit steps are not trainer steps
    assert metrics["nn.optimizer_step_ms"]["value"] == pytest.approx(0.75)
    assert metrics["nn.batches"]["value"] == 2
    assert metrics["pit.steps"]["value"] == 3
    assert metrics["trainer.fit_ms"]["value"] == pytest.approx(21.0)
    # 14 units of Trainer.fit less 6 of batches and 1 of trainer steps
    assert metrics["trainer.self_ms"]["value"] == pytest.approx(10.5)
    # the op minus both Trainer.fit calls and pit.fit: 20-16 and 40-32 ms
    assert metrics["forecaster.self_ms"]["value"] == pytest.approx(6.0)


# ----------------------------------------------------------------------
# GEMM row fill
# ----------------------------------------------------------------------
def test_gemm_row_fill_forecast_warmup():
    # 8 requests, 29 teacher-forced steps, 2 layers: per layer one 232-row
    # input projection (one 256-row block) and 29 recurrent 8-row products
    real = 2 * (8 * 29 + 29 * 8)
    padded = 2 * (256 + 29 * 256)
    assert gemm_row_fill([(8, 29, 2)], 256) == pytest.approx(real / padded)


def test_gemm_row_fill_carry_advance_and_multi_block():
    assert gemm_row_fill([(33, 1, 2)], 256) == pytest.approx(66 / 512)
    # 300 rows need two 256-row blocks
    assert gemm_row_fill([(300, 1, 1)], 256) == pytest.approx(600 / 1024)
    assert gemm_row_fill([(256, 1, 1)], 256) == 1.0
    assert gemm_row_fill([], 256) == 0.0


# ----------------------------------------------------------------------
# correctness checks
# ----------------------------------------------------------------------
def _samples(seed):
    return np.random.default_rng(seed).normal(size=(100, 2))


def test_arrays_match_flags_a_corrupted_response():
    reference = [_samples(1), _samples(2)]
    assert arrays_match([a.copy() for a in reference], reference)
    corrupted = [a.copy() for a in reference]
    corrupted[1][57, 1] = np.nextafter(corrupted[1][57, 1], np.inf)
    assert not arrays_match(corrupted, reference)
    assert not arrays_match([reference[0].astype(np.float32), reference[1]], reference)
    assert not arrays_match(reference[:1], reference)
    assert not arrays_match([reference[0], RuntimeError("failed")], reference)


def test_emitted_match_flags_corrupted_laps():
    reference = [(12, {1: _samples(1), 4: _samples(4)})]
    assert emitted_match([(12, {4: _samples(4), 1: _samples(1)})], reference)
    assert not emitted_match([(13, {1: _samples(1), 4: _samples(4)})], reference)
    assert not emitted_match([(12, {1: _samples(1)})], reference)
    bad = _samples(4)
    bad[0, 0] += 1e-12
    assert not emitted_match([(12, {1: _samples(1), 4: bad})], reference)
    assert not emitted_match([], reference)


def test_param_digest_flags_a_perturbed_parameter():
    params = {"lstm.w": _samples(1), "head.b": np.zeros(3)}
    digest = param_digest(params)
    assert param_digest(dict(reversed(list(params.items())))) == digest
    perturbed = {k: v.copy() for k, v in params.items()}
    perturbed["lstm.w"][3, 0] = np.nextafter(perturbed["lstm.w"][3, 0], -np.inf)
    assert param_digest(perturbed) != digest
    assert param_digest({"lstm.w": params["lstm.w"], "head.c": params["head.b"]}) != digest
