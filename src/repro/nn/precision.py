"""Precision policy for the low-precision inference tier.

The float64 serving path is the *exact reference*: it is gated byte-identical
across every refactor.  This module defines the cheaper tiers beneath it —

* ``float32`` — every weight, state and decode buffer cast to ``np.float32``
  so the recurrent GEMMs and dense transcendentals run single precision
  end to end (no silent upcasts: the engines assert the compute dtype after
  every kernel);
* ``int8`` — weights stored per-output-channel symmetrically quantised to
  signed 8-bit (``scale_j = max|w[:, j]| / 127``), dequantised once into a
  float32 operand at conversion time and then ridden through the same f32
  GEMM kernels.  The quantisation payload (``q`` + ``scale``) is what the
  artifact layer persists.

Neither tier claims byte identity; their contract is *error-bounded*
rank-forecast parity against the float64 reference, gated per family in
``benchmarks/test_bench_precision.py``.

This module is also the single dtype-policy choke point: everything in
``nn/`` / ``serving/`` that used to hard-code ``dtype=np.float64`` on a
precision-covered path routes through :func:`working_array` /
:func:`working_empty` / :func:`working_zeros` so the compute dtype is
decided in exactly one place.
"""

from __future__ import annotations

import copy
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "PRECISIONS",
    "DEFAULT_PRECISION",
    "normalize_precision",
    "compute_dtype",
    "working_array",
    "working_empty",
    "working_zeros",
    "RowWorkspace",
    "assert_dtype",
    "quantize_int8",
    "dequantize_int8",
    "convert_array",
    "convert_module",
]

#: supported precision tiers, in decreasing cost order
PRECISIONS: Tuple[str, ...] = ("float64", "float32", "int8")

#: the exact reference tier — every wire request defaults to it
DEFAULT_PRECISION = "float64"


def normalize_precision(value: Optional[str], default: str = DEFAULT_PRECISION) -> str:
    """Validate a precision name (``None`` means the default tier)."""
    if value is None:
        return default
    precision = str(value)
    if precision not in PRECISIONS:
        raise ValueError(
            f"unknown precision {precision!r}; supported: {', '.join(PRECISIONS)}"
        )
    return precision


def compute_dtype(precision: str) -> np.dtype:
    """The dtype the kernels run in for a tier.

    ``int8`` is a *storage* format: its weights are dequantised into float32
    operands once at conversion time, so its compute dtype is float32.
    """
    return np.dtype(np.float64 if normalize_precision(precision) == "float64" else np.float32)


# ----------------------------------------------------------------------
# dtype-policy helpers (the one place the compute dtype is applied)
# ----------------------------------------------------------------------
def working_array(x, dtype=np.float64, contiguous: bool = False) -> np.ndarray:
    """``np.asarray`` under the active compute dtype."""
    if contiguous:
        return np.ascontiguousarray(x, dtype=dtype)
    return np.asarray(x, dtype=dtype)


def working_empty(shape, dtype=np.float64) -> np.ndarray:
    """Uninitialised compute buffer under the active compute dtype."""
    return np.empty(shape, dtype=dtype)


def working_zeros(shape, dtype=np.float64) -> np.ndarray:
    """Zeroed compute buffer under the active compute dtype."""
    return np.zeros(shape, dtype=dtype)


class RowWorkspace:
    """Owned ``(rows, width)`` compute buffers, handed out as leading-row views.

    :meth:`take` reuses the buffers while they hold enough rows and
    reallocates them at exactly the requested row count otherwise, so a
    long-lived owner grows to its high-water row count and then stops
    allocating — and first-touching — fresh memory.  The views stay valid
    until the next :meth:`take`; results that outlive it must be copied.
    """

    __slots__ = ("widths", "dtype", "_buffers")

    def __init__(self, widths: Tuple[int, ...], dtype=np.float64) -> None:
        self.widths = tuple(int(w) for w in widths)
        self.dtype = np.dtype(dtype)
        self._buffers: Tuple[np.ndarray, ...] = ()

    def take(self, rows: int) -> Tuple[np.ndarray, ...]:
        """One C-contiguous ``(rows, width)`` view per width, in order."""
        if not self._buffers or self._buffers[0].shape[0] < rows:
            self._buffers = tuple(working_empty((rows, w), self.dtype) for w in self.widths)
        return tuple(buf[:rows] for buf in self._buffers)


def assert_dtype(array: np.ndarray, dtype, label: str = "array") -> np.ndarray:
    """Guard against silent upcasts on precision-covered paths."""
    if array.dtype != np.dtype(dtype):
        raise AssertionError(
            f"{label} silently changed dtype: expected {np.dtype(dtype)}, "
            f"got {array.dtype}"
        )
    return array


# ----------------------------------------------------------------------
# int8 weight quantisation (per-output-channel symmetric)
# ----------------------------------------------------------------------
def quantize_int8(w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-output-channel int8 quantisation of a weight matrix.

    ``w`` is ``(in, out)`` — the orientation every ``stable_matmul`` operand
    uses — so the channel axis is the *last* one: one float32 scale per
    output column, ``scale_j = max|w[:, j]| / 127`` (all-zero columns get
    scale 1 so dequantisation stays exact).  Returns ``(q, scale)`` with
    ``q`` int8 clipped to ±127 (the -128 code is never used, keeping the
    scheme symmetric).  1-D vectors (biases) quantise per-element the same
    way by treating each element as its own channel.
    """
    w = np.asarray(w, dtype=np.float64)
    absmax = np.max(np.abs(w), axis=0) if w.ndim >= 2 else np.abs(w)
    scale = np.where(absmax > 0.0, absmax / 127.0, 1.0).astype(np.float32)
    q = np.clip(np.rint(w / scale.astype(np.float64)), -127, 127).astype(np.int8)
    return q, scale


def dequantize_int8(q: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Expand an int8 payload back into the float32 GEMM operand."""
    return (q.astype(np.float32) * np.asarray(scale, dtype=np.float32)).astype(
        np.float32
    )


def convert_array(data: np.ndarray, precision: str) -> np.ndarray:
    """One parameter array under a precision tier (float64 passes through)."""
    precision = normalize_precision(precision)
    if precision == "float64":
        return np.asarray(data, dtype=np.float64)
    if precision == "float32":
        return np.asarray(data, dtype=np.float32)
    q, scale = quantize_int8(data)
    return dequantize_int8(q, scale)


def convert_module(module, precision: str):
    """A converted replica of ``module`` for the requested tier.

    ``float64`` returns the module itself (the reference path must not pay a
    copy).  Lower tiers deep-copy the module, then overwrite every
    parameter's ``data`` in place with the converted float32 array —
    assigning ``p.data`` directly on the copy deliberately bypasses
    :class:`~repro.nn.module.Parameter`'s float64 cast, which only training
    needs.  The original module is never touched, so training and the
    float64 serving path keep their bit-exact weights.
    """
    precision = normalize_precision(precision)
    if precision == "float64":
        return module
    replica = copy.deepcopy(module)
    for _, param in replica.named_parameters():
        param.data = convert_array(param.data, precision)
        param.grad = np.zeros_like(param.data)
    return replica
