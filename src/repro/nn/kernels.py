"""Shared GEMM kernels used by both the training and the serving paths.

:func:`stable_matmul` lived in :mod:`repro.nn.inference` originally; it was
moved here so the recurrent training modules can run their fused
full-sequence input projections through the same batch-size-invariant
kernel without importing the (higher-level) inference module.
:mod:`repro.nn.inference` re-exports both names, so existing imports keep
working.
"""

from __future__ import annotations

import numpy as np

__all__ = ["STABLE_CHUNK_ROWS", "stable_matmul"]

#: fixed GEMM row-block size; every matmul in the inference path runs on
#: exactly this many rows so results are independent of the batch size.
STABLE_CHUNK_ROWS = 256


def stable_matmul(
    x: np.ndarray,
    w: np.ndarray,
    out: np.ndarray | None = None,
    dtype: np.dtype | type | None = None,
) -> np.ndarray:
    """``x @ w`` with batch-size-invariant per-row results.

    The rows of ``x`` are processed in blocks of exactly
    :data:`STABLE_CHUNK_ROWS` rows (the final partial block is zero-padded),
    so the value computed for one row depends only on that row and ``w`` —
    not on how many other rows happen to share the batch.

    ``out`` (optional, ``(n, w.shape[1])`` C-contiguous, compute dtype)
    receives the result without allocating: full blocks are written by
    ``np.matmul`` directly into the output slice, which is bitwise identical
    to computing the block product into a temporary and copying it.  The
    decode engine uses this to keep its per-step gate buffers
    allocation-free.

    ``dtype`` selects the compute precision: explicit argument first, then
    ``out.dtype``, then the float64 reference — so every existing call site
    is bitwise unchanged while the low-precision tier runs the same kernel
    in float32 with no silent upcast.
    """
    if dtype is None:
        dtype = np.float64 if out is None else out.dtype
    x = np.ascontiguousarray(x, dtype=dtype)
    w = np.asarray(w, dtype=dtype)
    n = x.shape[0]
    if out is None:
        out = np.empty((n, w.shape[1]), dtype=dtype)
    for start in range(0, n, STABLE_CHUNK_ROWS):
        block = x[start : start + STABLE_CHUNK_ROWS]
        rows = block.shape[0]
        if rows == STABLE_CHUNK_ROWS:
            np.matmul(block, w, out=out[start : start + STABLE_CHUNK_ROWS])
        else:
            padded = np.zeros((STABLE_CHUNK_ROWS, x.shape[1]), dtype=dtype)
            padded[:rows] = block
            out[start : start + rows] = (padded @ w)[:rows]
    return out
