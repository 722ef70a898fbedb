"""Tests for the kernel benchmarks, roofline model, device models and breakdown."""

import numpy as np
import pytest

from repro.profiling import (
    DEFAULT_PLATFORM,
    DEVICES,
    KernelSpec,
    LSTM_KERNELS,
    TABLE8_SPECS,
    analytic_intensities,
    attainable_gflops,
    benchmark_kernels,
    cpu_kernel_shares,
    device_training_speed,
    hybrid_breakdown,
    kernel_workload,
    lstm_flops_per_sample,
    measure_cpu_training_speed,
    offload_fraction_for_batch,
    roofline_points,
)


def best_of_rounds(measure, key, cost, rounds=3):
    """Each point's cheapest reading over ``rounds`` calls of ``measure``.

    A call measures every point once, so the rounds interleave the points
    and a burst of load from another process slows one reading of each,
    not every reading of one point.
    """
    best = {}
    for _ in range(rounds):
        for point in measure():
            if key(point) not in best or cost(point) < cost(best[key(point)]):
                best[key(point)] = point
    return list(best.values())


@pytest.fixture(scope="module")
def measurements():
    return best_of_rounds(
        lambda: benchmark_kernels(batch_sizes=(32, 512), min_repeats=3, target_seconds=0.01),
        key=lambda m: (m.kernel, m.batch_size),
        cost=lambda m: m.us_per_call,
    )


def test_kernel_workload_counts():
    spec = KernelSpec(batch_size=32, input_dim=40, hidden_dim=40)
    matmul = kernel_workload("MatMul", spec)
    assert matmul["flops"] == pytest.approx(2 * 32 * 80 * 160)
    add = kernel_workload("Add", spec)
    assert add["flops"] == pytest.approx(32 * 160)
    with pytest.raises(ValueError):
        kernel_workload("Conv", spec)


def test_matmul_intensity_grows_with_batch_size():
    rows = analytic_intensities(batch_sizes=(32, 3200))
    ai = {(r["kernel"], r["batch_size"]): r["arithmetic_intensity"] for r in rows}
    assert ai[("MatMul", 3200)] > ai[("MatMul", 32)]
    # element-wise kernels have constant, low intensity
    assert ai[("Add", 3200)] == pytest.approx(ai[("Add", 32)])
    assert ai[("Add", 32)] < 1.0


def test_benchmark_kernels_measures_all_kernels(measurements):
    kernels_seen = {(m.kernel, m.batch_size) for m in measurements}
    assert kernels_seen == {(k, b) for k in LSTM_KERNELS for b in (32, 512)}
    for m in measurements:
        assert m.seconds > 0 and m.repeats >= 3
        assert m.gflops > 0
        assert m.us_per_call > 0


def test_matmul_far_more_compute_efficient_than_elementwise(measurements):
    """Fig. 11: the GEMM kernel sits far above the element-wise kernels in
    achieved GOPS (it is the only kernel with meaningful data reuse), and the
    element-wise kernels' per-call cost scales with the batch size."""
    for batch in (32, 512):
        matmul = next(m for m in measurements if m.kernel == "MatMul" and m.batch_size == batch)
        for kernel in ("Mul", "Add"):
            elem = next(m for m in measurements if m.kernel == kernel and m.batch_size == batch)
            assert matmul.gflops > 3.0 * elem.gflops
    add_small = next(m for m in measurements if m.kernel == "Add" and m.batch_size == 32)
    add_large = next(m for m in measurements if m.kernel == "Add" and m.batch_size == 512)
    assert add_large.us_per_call > add_small.us_per_call * 3.0


def test_roofline_points_and_bounds(measurements):
    points = roofline_points(measurements)
    assert len(points) == len(measurements)
    for p in points:
        assert p.bound_gflops > 0
        assert 0.0 <= p.efficiency <= 1.0
    assert attainable_gflops(DEFAULT_PLATFORM, 1e9) == DEFAULT_PLATFORM.vector_peak_gflops
    assert attainable_gflops(DEFAULT_PLATFORM, 0.1) == pytest.approx(6.8)


def test_roofline_envelope_monotone():
    grid = [0.01, 0.1, 1.0, 10.0, 100.0]
    lines = DEFAULT_PLATFORM.rooflines(grid)
    for level, values in lines.items():
        assert np.all(np.diff(values) >= 0)
        assert values.max() <= DEFAULT_PLATFORM.vector_peak_gflops + 1e-9


# ----------------------------------------------------------------------
# device models / Fig. 10
# ----------------------------------------------------------------------
def test_device_catalogue_and_table8():
    assert set(DEVICES) == {"CPU", "GPU", "GPU cuDNN", "VE"}
    assert len(TABLE8_SPECS) == 3
    assert DEVICES["GPU cuDNN"].kernels_per_step < DEVICES["GPU"].kernels_per_step


def test_device_us_per_sample_decreases_with_batch_size():
    flops = lstm_flops_per_sample()
    for device in DEVICES.values():
        small = device.us_per_sample(32, flops / 62, steps_per_sample=62)
        large = device.us_per_sample(3200, flops / 62, steps_per_sample=62)
        assert large < small


def test_fig10_shape_gpu_cudnn_fastest_and_ve_beats_cpu_at_large_batch():
    points = device_training_speed(batch_sizes=(32, 3200))
    by = {(p.device, p.batch_size): p.us_per_sample for p in points}
    # cuDNN-fused implementation is the fastest at every batch size
    for batch in (32, 3200):
        assert by[("GPU cuDNN", batch)] <= min(
            by[("CPU", batch)], by[("GPU", batch)], by[("VE", batch)]
        )
    # offloading pays off only at large batch sizes
    assert by[("VE", 3200)] < by[("CPU", 3200)]
    # every device improves from batch 32 to 3200, CPU included
    assert by[("CPU", 3200)] < by[("CPU", 32)]


def test_measured_cpu_training_speed_improves_with_batch():
    points = best_of_rounds(
        lambda: measure_cpu_training_speed(batch_sizes=(16, 128), seq_len=12, repeats=1),
        key=lambda p: p.batch_size,
        cost=lambda p: p.us_per_sample,
    )
    by = {p.batch_size: p.us_per_sample for p in points}
    assert by[128] < by[16]
    assert all(p.source == "measured" for p in points)


# ----------------------------------------------------------------------
# Fig. 12 breakdown
# ----------------------------------------------------------------------
def test_offload_fraction_grows_with_batch():
    ve = DEVICES["VE"]
    small = offload_fraction_for_batch(32, ve)
    large = offload_fraction_for_batch(3200, ve)
    assert 0.0 < small < large <= ve.offload_fraction


def test_cpu_kernel_shares_sum_to_one(measurements):
    shares = cpu_kernel_shares(measurements, batch_size=32)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert all(v > 0 for v in shares.values())
    # at the large batch size the GEMM group dominates the element-wise group
    shares_large = cpu_kernel_shares(measurements, batch_size=512)
    assert shares_large["matmul_mul"] > 0.15
    with pytest.raises(ValueError):
        cpu_kernel_shares(measurements, batch_size=999)


def test_hybrid_breakdown_fig12_shape(measurements):
    entries = hybrid_breakdown(batch_sizes=(32, 512), measurements=measurements)
    by_batch = {}
    for e in entries:
        by_batch.setdefault(e.batch_size, {})[e.component] = e.share
    for batch, components in by_batch.items():
        assert sum(components.values()) == pytest.approx(1.0)
    # more work runs on the VE at the larger batch size
    ve_small = sum(v for k, v in by_batch[32].items() if "(VE)" in k)
    ve_large = sum(v for k, v in by_batch[512].items() if "(VE)" in k)
    assert ve_large > ve_small
    assert by_batch[32]["Data movement"] < by_batch[512]["Data movement"] + 0.2
    rows = [e.as_row() for e in entries]
    assert all("share_pct" in r for r in rows)


def test_fleet_inference_breakdown_rows():
    from repro.profiling import fleet_inference_breakdown

    rows = fleet_inference_breakdown(n_cars=4, n_samples=8, n_origins=2,
                                     encoder_length=10, hidden_dim=8)
    strategies = [m.strategy for m in rows]
    assert strategies == ["per-car loop", "fleet-exact", "fleet-carry"]
    for m in rows:
        assert m.forecasts == 8
        assert m.wall_s > 0.0
        assert set(m.as_row()) == {"strategy", "wall_ms", "forecasts",
                                   "forecasts_per_s", "speedup_vs_loop"}
    loop, exact, carry = rows
    assert loop.speedup_vs_loop == pytest.approx(1.0)
    # no wall-clock assertions here: this is a milliseconds-scale smoke
    # workload and CI runners are noisy — the real >=5x speedup gate lives
    # in benchmarks/test_bench_fleet_inference.py on a full-size workload
    assert exact.speedup_vs_loop > 0.0
    assert carry.speedup_vs_loop > 0.0


def test_step_overhead_rows():
    from repro.profiling.training import step_overhead_breakdown

    pit, windows = step_overhead_breakdown(repeats=2)
    assert (pit["workload"], pit["unit"]) == ("pit-fit", "us/step")
    assert (windows["workload"], windows["unit"]) == ("make-windows", "ms/call")
    assert pit["steps"] > 0 and windows["windows"] > 0
    for row in (pit, windows):
        low, high = row["iqr"]
        assert row["repeats"] == 2
        assert 0.0 < low <= row["median"] <= high
