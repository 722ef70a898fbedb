"""Training-efficiency substrate: kernel benchmarks, roofline, device models.

The ``python -m`` reports (``training``, ``decode``, ``precision``) are not
imported here: runpy would find them loaded already and warn.
"""

from .batchscaling import (
    BatchScalingPoint,
    device_training_speed,
    lstm_flops_per_sample,
    measure_cpu_training_speed,
)
from .breakdown import BreakdownEntry, cpu_kernel_shares, hybrid_breakdown, offload_fraction_for_batch
from .report import bench_output_dir, host_fingerprint, write_bench_json
from .devices import DEVICES, DeviceModel, TABLE8_SPECS
from .inference import InferenceMeasurement, fleet_inference_breakdown
from .kernels import (
    KernelMeasurement,
    KernelSpec,
    LSTM_KERNELS,
    benchmark_kernels,
    kernel_workload,
)
from .roofline import (
    DEFAULT_PLATFORM,
    RooflinePlatform,
    RooflinePoint,
    analytic_intensities,
    attainable_gflops,
    roofline_points,
)

__all__ = [
    "BatchScalingPoint",
    "device_training_speed",
    "lstm_flops_per_sample",
    "measure_cpu_training_speed",
    "BreakdownEntry",
    "cpu_kernel_shares",
    "hybrid_breakdown",
    "offload_fraction_for_batch",
    "bench_output_dir",
    "host_fingerprint",
    "write_bench_json",
    "DEVICES",
    "DeviceModel",
    "TABLE8_SPECS",
    "InferenceMeasurement",
    "fleet_inference_breakdown",
    "KernelMeasurement",
    "KernelSpec",
    "LSTM_KERNELS",
    "benchmark_kernels",
    "kernel_workload",
    "DEFAULT_PLATFORM",
    "RooflinePlatform",
    "RooflinePoint",
    "analytic_intensities",
    "attainable_gflops",
    "roofline_points",
]
