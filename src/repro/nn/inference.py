"""Inference-only kernels for the fleet-batched forecasting engine.

Training uses the caching ``step``/``step_backward`` machinery of the
recurrent stacks; Monte-Carlo forecasting needs neither gradients nor
caches, so the serving engine runs on the fused, cache-free kernels in this
module instead.  They read the *same* parameters as the training modules —
no weights are copied — and add one crucial property the raw BLAS path does
not have: **batch-size invariance**.

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

from .activations import sigmoid, sigmoid_dense, softplus
from .distributions import GaussianOutput
from .gru import StackedGRU
from .kernels import STABLE_CHUNK_ROWS, stable_matmul
from .layers import MultiGaussianOutput
from .precision import working_array, working_empty
from .recurrent import StackedLSTM

__all__ = [
    "STABLE_CHUNK_ROWS",
    "stable_matmul",
    "tile_states",
    "slice_states",
    "concat_states",
    "LSTMStackInference",
    "GRUStackInference",
    "GaussianHeadInference",
    "MultiGaussianHeadInference",
    "recurrent_inference",
    "head_inference",
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


def concat_states(states_list: Sequence[Sequence[_State]]) -> List[_State]:
    """Concatenate the batch dimension of several compatible state lists."""
    if not states_list:
        raise ValueError("need at least one state list to concatenate")
    num_layers = len(states_list[0])
    out: List[_State] = []
    for layer in range(num_layers):
        parts = [states[layer] for states in states_list]
        if isinstance(parts[0], tuple):
            out.append(
                tuple(np.concatenate([p[i] for p in parts], axis=0) for i in range(len(parts[0])))
            )
        else:
            out.append(np.concatenate(parts, axis=0))
    return out


# ----------------------------------------------------------------------
# cache-free recurrent stacks
# ----------------------------------------------------------------------
class LSTMStackInference:
    """Cache-free, dropout-free forward stepping over a :class:`StackedLSTM`.

    Shares the stack's parameters by reference; safe to use concurrently
    with training as long as steps and weight updates do not interleave.

    ``dtype`` is the compute precision (default: the float64 reference).
    A non-default dtype expects a stack whose parameters were converted to
    that dtype (:func:`repro.nn.precision.convert_module`) so no kernel
    silently upcasts.
    """

    def __init__(self, stack: StackedLSTM, dtype=np.float64) -> None:
        self.stack = stack
        self.dtype = np.dtype(dtype)

    def zero_state(self, batch_size: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        return self.stack.zero_state(batch_size, dtype=self.dtype)

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

    def forward_sequence(
        self,
        x: np.ndarray,
        states: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None,
    ) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
        """Fused teacher-forced pass over ``(B, T, input_dim)``.

        Layer-major: each layer's input projections for all ``T`` steps run
        as one fused :func:`stable_matmul`, so only the recurrent product
        remains per-step, and each step's gates take one
        :func:`sigmoid_dense` pass.  Because every row of a ``stable_matmul``
        result depends only on that row, and ``sigmoid_dense`` equals the
        masked :func:`sigmoid` bit for bit, the outputs are **bitwise
        identical** to stepping the sequence through :meth:`step` one lap at
        a time.
        Returns the top-layer hidden sequence and the final states.
        """
        h_seq = working_array(x, dtype=self.dtype)
        batch, steps, _ = h_seq.shape
        if states is None:
            states = self.zero_state(batch)
        new_states: List[Tuple[np.ndarray, np.ndarray]] = []
        for cell, (h, c) in zip(self.stack.cells, states):
            hd = cell.hidden_dim
            x_proj = stable_matmul(
                h_seq.reshape(batch * steps, h_seq.shape[-1]), cell.w_x.data, dtype=self.dtype
            ).reshape(batch, steps, 4 * hd)
            out = working_empty((batch, steps, hd), dtype=self.dtype)
            scratch = tuple(working_empty((batch, 4 * hd), dtype=self.dtype) for _ in range(2))
            for t in range(steps):
                gates = (
                    x_proj[:, t, :]
                    + stable_matmul(h, cell.w_h.data, dtype=self.dtype)
                    + cell.bias.data
                )
                g = np.tanh(gates[:, 2 * hd : 3 * hd])
                # one dense pass over all four gates; the g columns it
                # overwrites were read above
                sigmoid_dense(gates, out=gates, scratch=scratch)
                i = gates[:, 0 * hd : 1 * hd]
                f = gates[:, 1 * hd : 2 * hd]
                o = gates[:, 3 * hd : 4 * hd]
                c = f * c + i * g
                h = o * np.tanh(c)
                out[:, t, :] = h
            new_states.append((h, c))
            h_seq = out
        return h_seq, new_states


class GRUStackInference:
    """Cache-free forward stepping over a :class:`StackedGRU`.

    ``dtype`` selects the compute precision, exactly as in
    :class:`LSTMStackInference`.
    """

    def __init__(self, stack: StackedGRU, dtype=np.float64) -> None:
        self.stack = stack
        self.dtype = np.dtype(dtype)

    def zero_state(self, batch_size: int) -> List[np.ndarray]:
        return self.stack.zero_state(batch_size, dtype=self.dtype)

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

    def forward_sequence(
        self, x: np.ndarray, states: Optional[Sequence[np.ndarray]] = None
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Fused teacher-forced pass (see ``LSTMStackInference.forward_sequence``)."""
        h_seq = working_array(x, dtype=self.dtype)
        batch, steps, _ = h_seq.shape
        if states is None:
            states = self.zero_state(batch)
        new_states: List[np.ndarray] = []
        for cell, h in zip(self.stack.cells, states):
            hd = cell.hidden_dim
            flat = h_seq.reshape(batch * steps, h_seq.shape[-1])
            gates_x = stable_matmul(flat, cell.w_x_gates.data, dtype=self.dtype).reshape(
                batch, steps, 2 * hd
            )
            cand_x = stable_matmul(flat, cell.w_x_cand.data, dtype=self.dtype).reshape(
                batch, steps, hd
            )
            out = working_empty((batch, steps, hd), dtype=self.dtype)
            scratch = tuple(working_empty((batch, 2 * hd), dtype=self.dtype) for _ in range(2))
            for t in range(steps):
                gates = (
                    gates_x[:, t, :]
                    + stable_matmul(h, cell.w_h_gates.data, dtype=self.dtype)
                    + cell.b_gates.data
                )
                sigmoid_dense(gates, out=gates, scratch=scratch)
                r = gates[:, :hd]
                u = gates[:, hd:]
                h_proj = stable_matmul(h, cell.w_h_cand.data, dtype=self.dtype)
                n = np.tanh(cand_x[:, t, :] + r * h_proj + cell.b_cand.data)
                h = (1.0 - u) * n + u * h
                out[:, t, :] = h
            new_states.append(h)
            h_seq = out
        return h_seq, new_states


def recurrent_inference(stack, dtype=np.float64) -> Union[LSTMStackInference, GRUStackInference]:
    """Build the matching cache-free stepper for a recurrent stack."""
    if isinstance(stack, StackedLSTM):
        return LSTMStackInference(stack, dtype=dtype)
    if isinstance(stack, StackedGRU):
        return GRUStackInference(stack, dtype=dtype)
    raise TypeError(f"unsupported recurrent stack: {type(stack).__name__}")


class GaussianHeadInference:
    """Cache-free ``(mu, sigma)`` projection sharing a head's parameters."""

    def __init__(self, head: GaussianOutput, dtype=np.float64) -> None:
        self.head = head
        self.dtype = np.dtype(dtype)

    def __call__(self, h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        head = self.head
        mu = (
            stable_matmul(h, head.mu_head.weight.data, dtype=self.dtype)[:, 0]
            + head.mu_head.bias.data[0]
        )
        pre = (
            stable_matmul(h, head.sigma_head.weight.data, dtype=self.dtype)[:, 0]
            + head.sigma_head.bias.data[0]
        )
        sigma = softplus(pre) + head.sigma_floor
        return mu, sigma


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


def head_inference(head, dtype=np.float64) -> Union[GaussianHeadInference, MultiGaussianHeadInference]:
    """Build the matching cache-free projection for a Gaussian head module."""
    if isinstance(head, MultiGaussianOutput):
        return MultiGaussianHeadInference(head, dtype=dtype)
    if isinstance(head, GaussianOutput):
        return GaussianHeadInference(head, dtype=dtype)
    raise TypeError(f"unsupported Gaussian head: {type(head).__name__}")
