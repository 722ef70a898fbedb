"""Reference recurrent inference: the masked-sigmoid stepping kernels.

:class:`LSTMStepReference` and :class:`GRUStepReference` keep, verbatim,
the ``step`` bodies the serving engine's ``LSTMStackInference`` /
``GRUStackInference`` ran before every inference path moved onto the
cells' ``step_decode`` kernel: unpermuted gate columns, one masked
:func:`sigmoid` per gate and fresh arrays for every intermediate.  They
share the stack's parameters, so parity tests compare the shipped kernel
against them byte for byte on every precision tier.  ``forward_sequence``
steps the same body lap by lap, which lets :func:`reference_forecaster`
run a whole per-lap engine (``reference/decode.py``) on the reference;
:class:`ReferenceDriver` puts it behind the engine driver's session API,
so the fused decode loop can run on it at every precision tier.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import StackedGRU, StackedLSTM, stable_matmul
from repro.nn.activations import sigmoid
from repro.nn.inference import slice_states
from repro.nn.precision import working_array
from repro.serving import FleetForecaster

from reference.decode import stepwise_forecaster


class _StepReference:
    def __init__(self, stack, dtype=np.float64) -> None:
        self.stack = stack
        self.dtype = np.dtype(dtype)

    def zero_state(self, batch_size: int):
        return self.stack.zero_state(batch_size, dtype=self.dtype)

    def forward_sequence(self, x: np.ndarray, states: Optional[Sequence] = None):
        """Teacher forcing as one :meth:`step` per lap."""
        x = working_array(x, dtype=self.dtype)
        states = self.zero_state(x.shape[0]) if states is None else states
        outputs = np.empty(x.shape[:2] + (self.stack.hidden_dim,), dtype=self.dtype)
        for t in range(x.shape[1]):
            outputs[:, t, :], states = self.step(x[:, t, :], states)
        return outputs, states


class LSTMStepReference(_StepReference):
    def step(self, x: np.ndarray, states: Sequence[Tuple[np.ndarray, np.ndarray]]):
        h = working_array(x, dtype=self.dtype)
        new_states: List[Tuple[np.ndarray, np.ndarray]] = []
        for cell, (h_prev, c_prev) in zip(self.stack.cells, states):
            gates = (
                stable_matmul(h, cell.w_x.data, dtype=self.dtype)
                + stable_matmul(h_prev, cell.w_h.data, dtype=self.dtype)
                + cell.bias.data
            )
            hd = cell.hidden_dim
            i = sigmoid(gates[:, 0 * hd : 1 * hd])
            f = sigmoid(gates[:, 1 * hd : 2 * hd])
            g = np.tanh(gates[:, 2 * hd : 3 * hd])
            o = sigmoid(gates[:, 3 * hd : 4 * hd])
            c = f * c_prev + i * g
            h = o * np.tanh(c)
            new_states.append((h, c))
        return h, new_states


class GRUStepReference(_StepReference):
    def step(self, x: np.ndarray, states: Sequence[np.ndarray]):
        h = working_array(x, dtype=self.dtype)
        new_states: List[np.ndarray] = []
        for cell, h_prev in zip(self.stack.cells, states):
            gates = (
                stable_matmul(h, cell.w_x_gates.data, dtype=self.dtype)
                + stable_matmul(h_prev, cell.w_h_gates.data, dtype=self.dtype)
                + cell.b_gates.data
            )
            hd = cell.hidden_dim
            r = sigmoid(gates[:, :hd])
            u = sigmoid(gates[:, hd:])
            h_proj = stable_matmul(h_prev, cell.w_h_cand.data, dtype=self.dtype)
            n = np.tanh(
                stable_matmul(h, cell.w_x_cand.data, dtype=self.dtype)
                + r * h_proj
                + cell.b_cand.data
            )
            h = (1.0 - u) * n + u * h_prev
            new_states.append(h)
        return h, new_states


def reference_stepper(stack, dtype=np.float64) -> _StepReference:
    """The masked-sigmoid reference for a recurrent stack."""
    if isinstance(stack, StackedLSTM):
        return LSTMStepReference(stack, dtype=dtype)
    if isinstance(stack, StackedGRU):
        return GRUStepReference(stack, dtype=dtype)
    raise TypeError(f"unsupported recurrent stack: {type(stack).__name__}")


class ReferenceDriver:
    """The masked-sigmoid reference behind the engine driver's session API
    (``load`` / ``step_decode`` / ``states``), on any precision tier.

    ``load(states, rows)`` gathers the rows up front, so every step —
    lap 2 included — runs the reference's full per-row products."""

    def __init__(self, stack, dtype=np.float64) -> None:
        self.reference = reference_stepper(stack, dtype=dtype)
        self._states: List = []

    def zero_state(self, batch_size: int):
        return self.reference.zero_state(batch_size)

    def forward_sequence(self, x: np.ndarray, states: Optional[Sequence] = None):
        return self.reference.forward_sequence(x, states)

    def step(self, x: np.ndarray, states: Sequence):
        return self.reference.step(x, states)

    def load(self, states: Sequence, rows: Optional[np.ndarray] = None) -> None:
        self._states = list(states) if rows is None else slice_states(states, rows)

    def step_decode(self, x: np.ndarray) -> np.ndarray:
        h, self._states = self.reference.step(x, self._states)
        return h

    def states(self) -> List:
        return slice_states(self._states, slice(None))


def reference_forecaster(model, **kwargs) -> FleetForecaster:
    """A float64 per-lap reference engine whose warm-up and every decode
    lap run on the masked-sigmoid reference; ``kwargs`` are the engine's
    own (mode, cache_size...)."""
    engine = stepwise_forecaster(model, **kwargs)
    engine._backend.driver = reference_stepper(engine._backend.stack_module)
    return engine
