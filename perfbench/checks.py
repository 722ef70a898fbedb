"""Per-op output checks: byte equality with a reference computed untimed."""

from __future__ import annotations

import hashlib
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

__all__ = ["same_bytes", "arrays_match", "emitted_match", "param_digest"]


def same_bytes(got, expected) -> bool:
    """True when two arrays have the same dtype, shape and bytes."""
    if not isinstance(got, np.ndarray) or not isinstance(expected, np.ndarray):
        return False
    return (
        got.dtype == expected.dtype
        and got.shape == expected.shape
        and got.tobytes() == expected.tobytes()
    )


def arrays_match(got: Sequence, expected: Sequence) -> bool:
    """A forecast response (one array per request) against its reference."""
    return len(got) == len(expected) and all(map(same_bytes, got, expected))


def emitted_match(
    got: Sequence[Tuple[int, Mapping[int, np.ndarray]]],
    expected: Sequence[Tuple[int, Mapping[int, np.ndarray]]],
) -> bool:
    """Session output ``[(origin, {car_id: samples})]`` against its reference."""
    if len(got) != len(expected):
        return False
    for (origin, forecasts), (ref_origin, ref_forecasts) in zip(got, expected):
        if int(origin) != int(ref_origin) or set(forecasts) != set(ref_forecasts):
            return False
        if not all(same_bytes(forecasts[car], ref_forecasts[car]) for car in ref_forecasts):
            return False
    return True


def param_digest(arrays: Dict[str, np.ndarray]) -> str:
    """sha256 over named parameter arrays (name, dtype, shape, bytes)."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()
