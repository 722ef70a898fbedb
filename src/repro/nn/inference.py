"""Inference-only kernels for the fleet-batched forecasting engine.

Training runs the recurrent stacks' caching ``forward_sequence`` /
``backward_sequence`` path; Monte-Carlo forecasting needs neither gradients
nor caches, so the serving engine drives the cells' cache-free
``step_decode`` / ``sequence_decode`` kernel through :class:`StackInference`
and projects with :class:`MultiGaussianHeadInference` instead.  They read the
*same* parameters as the training modules — no weights are copied beyond
the LSTM's per-session gate permutation — and add one crucial property the
raw BLAS path does not have: **batch-size invariance**.

BLAS GEMM picks different blocking (and therefore different floating-point
summation orders) for different numbers of rows, so ``(x @ W)[i]`` is not
bitwise reproducible across batch sizes.  The fleet engine flattens
``cars x n_samples`` into one batch dimension, which would make a batched
forecast differ in the last bits from the same forecast computed one car at
a time.  :func:`stable_matmul` removes the dependence by always multiplying
fixed-size row blocks (padding the last block with zeros), so every row's
result only depends on the row's contents — a fleet-batched forecast is
byte-identical to a single-request forecast given the same RNG streams.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .activations import softplus
from .gru import GRUDecodeContext, StackedGRU
from .kernels import STABLE_CHUNK_ROWS, stable_matmul
from .layers import MultiGaussianOutput
from .precision import working_array
from .recurrent import LSTMDecodeContext, StackedLSTM

__all__ = [
    "STABLE_CHUNK_ROWS",
    "stable_matmul",
    "tile_states",
    "slice_states",
    "StackInference",
    "MultiGaussianHeadInference",
]


# ----------------------------------------------------------------------
# state utilities (work on both LSTM (h, c) pairs and GRU h arrays)
# ----------------------------------------------------------------------
_State = Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]


def _map_state(state: _State, fn) -> _State:
    if isinstance(state, tuple):
        return tuple(fn(part) for part in state)
    return fn(state)


def tile_states(states: Sequence[_State], counts: Union[int, np.ndarray]) -> List[_State]:
    """Replicate each batch row of every layer state ``counts`` times."""
    return [_map_state(s, lambda a: np.repeat(a, counts, axis=0)) for s in states]


def slice_states(states: Sequence[_State], index) -> List[_State]:
    """Select batch rows (an index array or slice) from every layer state."""
    return [_map_state(s, lambda a: np.ascontiguousarray(a[index])) for s in states]


# ----------------------------------------------------------------------
# the recurrent stack driver
# ----------------------------------------------------------------------
class StackInference:
    """Cache-free, dropout-free inference over a :class:`StackedLSTM` or
    :class:`StackedGRU`, on one reusable decode context per layer.

    Every entry point runs the cells' ``step_decode`` kernel (its
    ``sequence_decode`` form for a known input sequence), so the warm-up,
    the first decode lap and the later laps share one implementation:

    * :meth:`forward_sequence` — teacher forcing over a known sequence;
    * :meth:`step` — one allocating step from caller-held states;
    * :meth:`load` then :meth:`step_decode` — an allocation-free session.

    The contexts live as long as the driver, so a long-lived driver stops
    allocating once its buffers reach their high-water row counts;
    ``max_rows`` (the serving engine passes its ``max_batch_rows``) caps
    the rows of the warm-up's sequence buffers, ``None`` leaves them
    unbounded.
    Returned states are always fresh arrays, never context views.  The
    driver shares the stack's parameters by reference.  ``dtype`` is the
    compute precision (default: the float64 reference); a non-default dtype
    expects a stack converted to it
    (:func:`repro.nn.precision.convert_module`) so no kernel silently
    upcasts.
    """

    def __init__(self, stack, dtype=np.float64, max_rows: Optional[int] = None) -> None:
        if isinstance(stack, StackedLSTM):
            context = LSTMDecodeContext
        elif isinstance(stack, StackedGRU):
            context = GRUDecodeContext
        else:
            raise TypeError(f"unsupported recurrent stack: {type(stack).__name__}")
        self.stack = stack
        self.dtype = np.dtype(dtype)
        self.max_rows = max_rows
        self.ctxs = [context(cell, dtype=self.dtype) for cell in stack.cells]

    def zero_state(self, batch_size: int) -> List[_State]:
        return self.stack.zero_state(batch_size, dtype=self.dtype)

    def load(self, states: Sequence[_State], rows: Optional[np.ndarray] = None) -> None:
        """Start a session from per-layer ``states`` (their rows ``rows``, if
        given), re-reading the stack's current weights."""
        if len(states) != len(self.ctxs):
            raise ValueError(f"expected {len(self.ctxs)} states, got {len(states)}")
        for ctx, state in zip(self.ctxs, states):
            ctx.load(state, rows)

    def states(self) -> List[_State]:
        """Fresh copies of every layer's running state."""
        return [ctx.state() for ctx in self.ctxs]

    def step_decode(self, x: np.ndarray) -> np.ndarray:
        """Advance the loaded session one step without allocating.

        Returns the top-layer hidden state as a view of the last context's
        buffer, valid until the next step.
        """
        h = x
        for cell, ctx in zip(self.stack.cells, self.ctxs):
            h = cell.step_decode(h, ctx)
        return h

    def step(self, x: np.ndarray, states: Sequence[_State]) -> Tuple[np.ndarray, List[_State]]:
        """One step from ``states``; returns the top-layer hidden state and
        the new per-layer states, all fresh arrays."""
        self.load(states)
        self.step_decode(x)
        new_states = self.states()
        top = new_states[-1]
        return (top[0] if isinstance(top, tuple) else top), new_states

    def forward_sequence(
        self, x: np.ndarray, states: Optional[Sequence[_State]] = None
    ) -> Tuple[np.ndarray, List[_State]]:
        """Teacher-forced pass over ``(B, T, input_dim)`` from ``states``
        (zeros if omitted).

        The sequence runs in time chunks of ``max(1, max_rows // B)`` steps
        (one chunk when ``max_rows`` is ``None`` or the sequence fits), each
        through every layer: per layer, one :func:`stable_matmul` projects
        the chunk's inputs, then the recurrent tail of ``step_decode`` runs
        per step.  ``stable_matmul`` rows are batch-size invariant, so the
        result is bitwise identical to ``T`` calls of :meth:`step` for any
        chunking, and the contexts' sequence buffers hold at most
        ``max(max_rows, B)`` rows.  Returns the top-layer hidden sequence — for a
        single chunk a view of the driver's buffers, valid until the next
        call, else a fresh array — and fresh final states.
        """
        x = working_array(x, dtype=self.dtype, contiguous=True)
        batch, steps = x.shape[:2]
        self.load(self.zero_state(batch) if states is None else states)
        span = max(1, steps if self.max_rows is None else self.max_rows // max(batch, 1))
        outputs = None
        for t0 in range(0, max(steps, 1), span):
            h_seq = x[:, t0 : t0 + span]
            for cell, ctx in zip(self.stack.cells, self.ctxs):
                h_seq = cell.sequence_decode(h_seq, ctx)
            if span < steps:
                if outputs is None:
                    outputs = np.empty((batch, steps, h_seq.shape[2]), dtype=self.dtype)
                outputs[:, t0 : t0 + span] = h_seq
        return (h_seq if outputs is None else outputs), self.states()


# ``perfbench/serving.py`` records the warm-up shapes by patching
# ``forward_sequence`` on the class under this name
LSTMStackInference = StackInference


class MultiGaussianHeadInference:
    """Cache-free ``(mu, sigma)`` projection for a fused multi-dim head.

    One ``(H, 2D)`` :func:`stable_matmul` per call; returns ``(B, D)``
    arrays covering every target dimension at once.
    """

    def __init__(self, head: MultiGaussianOutput, dtype=np.float64) -> None:
        self.head = head
        self.dtype = np.dtype(dtype)

    def __call__(self, h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        head = self.head
        out = stable_matmul(h, head.weight.data, dtype=self.dtype) + head.bias.data
        d = head.target_dim
        mu = out[:, :d]
        sigma = softplus(out[:, d:]) + head.sigma_floor
        return mu, sigma
