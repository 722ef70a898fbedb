"""Reference recurrent training: the stepwise BPTT the fused engine replaced.

The shipped recurrent modules train on one path, the fused
``forward_sequence`` / ``backward_sequence``.  This module keeps, verbatim,
the one-step-at-a-time training math they carried before: each cell's
``step`` / ``step_backward`` / ``forward`` / ``backward``, the stacks'
time-major loops with the inter-layer dropout drawn per step, and
:func:`stepwise_loss`, the lap-by-lap ``RankSeqModel`` loss.

The wrappers share the wrapped module's :class:`~repro.nn.Parameter`
objects, so they read the current weights and accumulate into the same
``.grad`` arrays; call ``zero_grad`` on the shipped module.  The stacked
LSTM wrapper reads the stack's ``training``, ``dropout_rate`` and ``rng``,
so the stepwise masks consume the same RNG stream as the fused draw.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import GRUCell, LSTMCell, Parameter, StackedGRU, StackedLSTM
from repro.nn.activations import sigmoid
from repro.nn.losses import gaussian_nll_seq

LSTMState = Tuple[np.ndarray, np.ndarray]


class _CellReference:
    def __init__(self, cell) -> None:
        self.cell = cell
        self.input_dim = cell.input_dim
        self.hidden_dim = cell.hidden_dim
        for name, value in vars(cell).items():
            if isinstance(value, Parameter):
                setattr(self, name, value)
        self.zero_state = cell.zero_state
        self._cache: List[tuple] = []
        self._dgates_buf: Optional[np.ndarray] = None

    def clear_cache(self) -> None:
        self._cache.clear()


class LSTMCellReference(_CellReference):
    """Stepwise training math of one :class:`~repro.nn.LSTMCell`."""

    def step(self, x: np.ndarray, state: LSTMState) -> Tuple[np.ndarray, LSTMState]:
        """Run one time step; returns the new hidden state and state pair."""
        h_prev, c_prev = state
        x = np.asarray(x, dtype=np.float64)
        gates = x @ self.w_x.data + h_prev @ self.w_h.data + self.bias.data
        hd = self.hidden_dim
        i = sigmoid(gates[:, 0 * hd : 1 * hd])
        f = sigmoid(gates[:, 1 * hd : 2 * hd])
        g = np.tanh(gates[:, 2 * hd : 3 * hd])
        o = sigmoid(gates[:, 3 * hd : 4 * hd])
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        self._cache.append((x, h_prev, c_prev, i, f, g, o, tanh_c))
        return h, (h, c)

    def step_backward(
        self, dh: np.ndarray, dc: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward pass for the most recent cached step.

        Parameters
        ----------
        dh:
            Gradient w.r.t. the hidden output of the step (including any
            gradient flowing back from the *next* time step's recurrence).
        dc:
            Gradient w.r.t. the cell state flowing back from the next step.

        Returns
        -------
        (dx, dh_prev, dc_prev)
        """
        if not self._cache:
            raise RuntimeError("step_backward called more times than step")
        x, h_prev, c_prev, i, f, g, o, tanh_c = self._cache.pop()
        dh = np.asarray(dh, dtype=np.float64)
        if dc is None:
            dc = np.zeros_like(dh)
        d_o = dh * tanh_c
        dc_total = dc + dh * o * (1.0 - tanh_c * tanh_c)
        d_i = dc_total * g
        d_f = dc_total * c_prev
        d_g = dc_total * i
        dc_prev = dc_total * f
        # back through gate non-linearities
        hd = self.hidden_dim
        dgates = self._step_dgates(dh.shape[0])
        dgates[:, 0 * hd : 1 * hd] = d_i * i * (1.0 - i)
        dgates[:, 1 * hd : 2 * hd] = d_f * f * (1.0 - f)
        dgates[:, 2 * hd : 3 * hd] = d_g * (1.0 - g * g)
        dgates[:, 3 * hd : 4 * hd] = d_o * o * (1.0 - o)
        self.w_x.grad += x.T @ dgates
        self.w_h.grad += h_prev.T @ dgates
        self.bias.grad += dgates.sum(axis=0)
        dx = dgates @ self.w_x.data.T
        dh_prev = dgates @ self.w_h.data.T
        return dx, dh_prev, dc_prev

    def _step_dgates(self, batch: int) -> np.ndarray:
        """Preallocated per-step ``(B, 4H)`` gate-gradient buffer.

        The buffer is consumed (matmuls, sums) before :meth:`step_backward`
        returns, so reusing it across steps is safe and removes the
        ``np.concatenate`` allocation from the BPTT hot loop.
        """
        buf = self._dgates_buf
        if buf is None or buf.shape[0] != batch:
            buf = self._dgates_buf = np.empty((batch, 4 * self.hidden_dim), dtype=np.float64)
        return buf

    def forward(self, x: np.ndarray, state: Optional[LSTMState] = None) -> Tuple[np.ndarray, LSTMState]:
        """Run a full ``(batch, time, input_dim)`` sequence."""
        x = np.asarray(x, dtype=np.float64)
        batch, steps, _ = x.shape
        if state is None:
            state = self.zero_state(batch)
        outputs = np.empty((batch, steps, self.hidden_dim), dtype=np.float64)
        for t in range(steps):
            h, state = self.step(x[:, t, :], state)
            outputs[:, t, :] = h
        return outputs, state

    def backward(
        self,
        d_outputs: np.ndarray,
        d_state: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> np.ndarray:
        """Backward through a full sequence processed with :meth:`forward`."""
        d_outputs = np.asarray(d_outputs, dtype=np.float64)
        batch, steps, _ = d_outputs.shape
        if d_state is None:
            dh_next = np.zeros((batch, self.hidden_dim))
            dc_next = np.zeros((batch, self.hidden_dim))
        else:
            dh_next, dc_next = d_state
        dx = np.empty((batch, steps, self.input_dim), dtype=np.float64)
        for t in reversed(range(steps)):
            dxt, dh_next, dc_next = self.step_backward(d_outputs[:, t, :] + dh_next, dc_next)
            dx[:, t, :] = dxt
        return dx


class GRUCellReference(_CellReference):
    """Stepwise training math of one :class:`~repro.nn.GRUCell`."""

    def step(self, x: np.ndarray, h_prev: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        h_prev = np.asarray(h_prev, dtype=np.float64)
        gates = x @ self.w_x_gates.data + h_prev @ self.w_h_gates.data + self.b_gates.data
        hd = self.hidden_dim
        r = sigmoid(gates[:, :hd])
        u = sigmoid(gates[:, hd:])
        h_proj = h_prev @ self.w_h_cand.data
        n = np.tanh(x @ self.w_x_cand.data + r * h_proj + self.b_cand.data)
        h = (1.0 - u) * n + u * h_prev
        self._cache.append((x, h_prev, r, u, n, h_proj))
        return h

    def step_backward(self, dh: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Backward for the most recent step: returns ``(dx, dh_prev)``."""
        if not self._cache:
            raise RuntimeError("step_backward called more times than step")
        x, h_prev, r, u, n, h_proj = self._cache.pop()
        dh = np.asarray(dh, dtype=np.float64)

        d_u = dh * (h_prev - n)
        d_n = dh * (1.0 - u)
        dh_prev = dh * u

        d_n_pre = d_n * (1.0 - n * n)
        self.w_x_cand.grad += x.T @ d_n_pre
        self.b_cand.grad += d_n_pre.sum(axis=0)
        d_r = d_n_pre * h_proj
        d_h_proj = d_n_pre * r
        self.w_h_cand.grad += h_prev.T @ d_h_proj
        dh_prev += d_h_proj @ self.w_h_cand.data.T
        dx = d_n_pre @ self.w_x_cand.data.T

        hd = self.hidden_dim
        d_gates = self._step_dgates(dh.shape[0])
        d_gates[:, :hd] = d_r * r * (1.0 - r)
        d_gates[:, hd:] = d_u * u * (1.0 - u)
        self.w_x_gates.grad += x.T @ d_gates
        self.w_h_gates.grad += h_prev.T @ d_gates
        self.b_gates.grad += d_gates.sum(axis=0)
        dx += d_gates @ self.w_x_gates.data.T
        dh_prev += d_gates @ self.w_h_gates.data.T
        return dx, dh_prev

    def _step_dgates(self, batch: int) -> np.ndarray:
        """Preallocated per-step ``(B, 2H)`` gate-gradient buffer (consumed
        before the next step, so reuse is safe — mirrors ``LSTMCell``)."""
        buf = self._dgates_buf
        if buf is None or buf.shape[0] != batch:
            buf = self._dgates_buf = np.empty((batch, 2 * self.hidden_dim), dtype=np.float64)
        return buf

    def forward(self, x: np.ndarray, h0: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        batch, steps, _ = x.shape
        h = h0 if h0 is not None else self.zero_state(batch)
        outputs = np.empty((batch, steps, self.hidden_dim), dtype=np.float64)
        for t in range(steps):
            h = self.step(x[:, t, :], h)
            outputs[:, t, :] = h
        return outputs, h

    def backward(self, d_outputs: np.ndarray) -> np.ndarray:
        d_outputs = np.asarray(d_outputs, dtype=np.float64)
        batch, steps, _ = d_outputs.shape
        dh_next = np.zeros((batch, self.hidden_dim))
        dx = np.empty((batch, steps, self.input_dim), dtype=np.float64)
        for t in reversed(range(steps)):
            dxt, dh_next = self.step_backward(d_outputs[:, t, :] + dh_next)
            dx[:, t, :] = dxt
        return dx


class _StackReference:
    def __init__(self, stack, cell_reference) -> None:
        self.stack = stack
        self.input_dim = stack.input_dim
        self.hidden_dim = stack.hidden_dim
        self.num_layers = stack.num_layers
        self.cells = [cell_reference(cell) for cell in stack.cells]
        self._dropout_cache: List[List[Optional[np.ndarray]]] = []

    @property
    def training(self) -> bool:
        return self.stack.training

    @property
    def dropout_rate(self) -> float:
        return self.stack.dropout_rate

    @property
    def rng(self) -> np.random.Generator:
        return self.stack.rng

    def zero_state(self, batch_size: int, dtype=np.float64):
        return self.stack.zero_state(batch_size, dtype=dtype)

    def clear_cache(self) -> None:
        self._dropout_cache.clear()
        for cell in self.cells:
            cell.clear_cache()


class StackedLSTMReference(_StackReference):
    """Time-major stepwise training over a :class:`~repro.nn.StackedLSTM`."""

    def __init__(self, stack: StackedLSTM) -> None:
        super().__init__(stack, LSTMCellReference)

    def step(
        self, x: np.ndarray, states: Sequence[LSTMState]
    ) -> Tuple[np.ndarray, List[LSTMState]]:
        """Advance the whole stack by one time step."""
        if len(states) != self.num_layers:
            raise ValueError(f"expected {self.num_layers} states, got {len(states)}")
        new_states: List[LSTMState] = []
        masks: List[Optional[np.ndarray]] = []
        h = np.asarray(x, dtype=np.float64)
        for layer, cell in enumerate(self.cells):
            h, state = cell.step(h, states[layer])
            new_states.append(state)
            if (
                self.training
                and self.dropout_rate > 0.0
                and layer < self.num_layers - 1
            ):
                keep = 1.0 - self.dropout_rate
                mask = (self.rng.random(h.shape) < keep).astype(np.float64) / keep
                h = h * mask
                masks.append(mask)
            else:
                masks.append(None)
        self._dropout_cache.append(masks)
        return h, new_states

    def step_backward(
        self,
        dh_top: np.ndarray,
        dstates: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None,
    ) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
        """Backward for the most recent :meth:`step` call.

        Parameters
        ----------
        dh_top:
            Gradient w.r.t. the top-layer hidden output of the step.
        dstates:
            Per-layer ``(dh, dc)`` gradients flowing back from the next time
            step (or ``None`` at the last step).

        Returns
        -------
        (dx, dprev_states) where ``dprev_states`` is a list of per-layer
        ``(dh_prev, dc_prev)`` to be passed to the previous step.
        """
        if not self._dropout_cache:
            raise RuntimeError("step_backward called more times than step")
        masks = self._dropout_cache.pop()
        batch = np.asarray(dh_top).shape[0]
        if dstates is None:
            dstates = [
                (
                    np.zeros((batch, self.hidden_dim)),
                    np.zeros((batch, self.hidden_dim)),
                )
                for _ in range(self.num_layers)
            ]
        dprev_states: List[Tuple[np.ndarray, np.ndarray]] = [None] * self.num_layers  # type: ignore
        d_from_above = np.asarray(dh_top, dtype=np.float64)
        for layer in reversed(range(self.num_layers)):
            cell = self.cells[layer]
            if masks[layer] is not None:
                d_from_above = d_from_above * masks[layer]
            dh = d_from_above + dstates[layer][0]
            dc = dstates[layer][1]
            dx_layer, dh_prev, dc_prev = cell.step_backward(dh, dc)
            dprev_states[layer] = (dh_prev, dc_prev)
            d_from_above = dx_layer
        return d_from_above, dprev_states

    def forward(
        self, x: np.ndarray, states: Optional[Sequence[LSTMState]] = None
    ) -> Tuple[np.ndarray, List[LSTMState]]:
        """Run a full ``(batch, time, input_dim)`` sequence through the stack."""
        x = np.asarray(x, dtype=np.float64)
        batch, steps, _ = x.shape
        if states is None:
            states = self.zero_state(batch)
        outputs = np.empty((batch, steps, self.hidden_dim), dtype=np.float64)
        for t in range(steps):
            h, states = self.step(x[:, t, :], states)
            outputs[:, t, :] = h
        return outputs, list(states)

    def backward(
        self,
        d_outputs: np.ndarray,
        d_final_states: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None,
    ) -> np.ndarray:
        """Backward through a full sequence processed with :meth:`forward`."""
        d_outputs = np.asarray(d_outputs, dtype=np.float64)
        batch, steps, _ = d_outputs.shape
        dstates = list(d_final_states) if d_final_states is not None else None
        dx = np.empty((batch, steps, self.input_dim), dtype=np.float64)
        for t in reversed(range(steps)):
            dxt, dstates = self.step_backward(d_outputs[:, t, :], dstates)
            dx[:, t, :] = dxt
        return dx


class StackedGRUReference(_StackReference):
    """Time-major stepwise training over a :class:`~repro.nn.StackedGRU`."""

    def __init__(self, stack: StackedGRU) -> None:
        super().__init__(stack, GRUCellReference)

    def step(self, x: np.ndarray, states: Sequence[np.ndarray]) -> Tuple[np.ndarray, List[np.ndarray]]:
        if len(states) != self.num_layers:
            raise ValueError(f"expected {self.num_layers} states, got {len(states)}")
        h = np.asarray(x, dtype=np.float64)
        new_states: List[np.ndarray] = []
        for layer, cell in enumerate(self.cells):
            h = cell.step(h, states[layer])
            new_states.append(h)
        return h, new_states

    def step_backward(
        self, dh_top: np.ndarray, dstates: Optional[Sequence[np.ndarray]] = None
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        batch = np.asarray(dh_top).shape[0]
        if dstates is None:
            dstates = [np.zeros((batch, self.hidden_dim)) for _ in range(self.num_layers)]
        dprev: List[np.ndarray] = [None] * self.num_layers  # type: ignore
        d_from_above = np.asarray(dh_top, dtype=np.float64)
        for layer in reversed(range(self.num_layers)):
            dx_layer, dh_prev = self.cells[layer].step_backward(d_from_above + dstates[layer])
            dprev[layer] = dh_prev
            d_from_above = dx_layer
        return d_from_above, dprev

    def forward(self, x: np.ndarray, states: Optional[Sequence[np.ndarray]] = None):
        x = np.asarray(x, dtype=np.float64)
        batch, steps, _ = x.shape
        states = list(states) if states is not None else self.zero_state(batch)
        outputs = np.empty((batch, steps, self.hidden_dim), dtype=np.float64)
        for t in range(steps):
            h, states = self.step(x[:, t, :], states)
            outputs[:, t, :] = h
        return outputs, states

    def backward(self, d_outputs: np.ndarray) -> np.ndarray:
        d_outputs = np.asarray(d_outputs, dtype=np.float64)
        batch, steps, _ = d_outputs.shape
        dstates = None
        dx = np.empty((batch, steps, self.input_dim), dtype=np.float64)
        for t in reversed(range(steps)):
            dxt, dstates = self.step_backward(d_outputs[:, t, :], dstates)
            dx[:, t, :] = dxt
        return dx


_REFERENCES = (
    (LSTMCell, LSTMCellReference),
    (GRUCell, GRUCellReference),
    (StackedLSTM, StackedLSTMReference),
    (StackedGRU, StackedGRUReference),
)


def stepwise(module):
    """The stepwise training reference for a shipped cell or stack."""
    for cls, reference in _REFERENCES:
        if isinstance(module, cls):
            return reference(module)
    raise TypeError(f"no stepwise reference for {type(module).__name__}")


def stepwise_loss(model, batch: Dict[str, np.ndarray], with_backward: bool) -> float:
    """One-lap-at-a-time ``RankSeqModel`` loss (and BPTT) over the step API.

    The former ``RankSeqModel._forward_loss_stepwise`` body, with the
    stack's :func:`stepwise` reference in place of ``model.lstm``.
    """
    lstm = stepwise(model.lstm)
    target, covariates, weight = model._check_batch(batch)
    batch_size, total_len, _ = target.shape
    scale = model._scale_factors(target)  # (B, D)
    z = target / scale[:, None, :]

    states = lstm.zero_state(batch_size)
    decoder_start = total_len - model.decoder_length
    step_params: Dict[int, tuple] = {}  # t -> (mu (B,D), sigma (B,D))
    for t in range(1, total_len):
        x_t = np.concatenate([z[:, t - 1, :], covariates[:, t, :]], axis=1)
        h_t, states = lstm.step(x_t, states)
        if t >= decoder_start:
            step_params[t] = model.head.forward(h_t)

    # loss over decoder steps, averaged over (instances x steps x dims)
    total_loss = 0.0
    grads: Dict[int, tuple] = {}
    steps = sorted(step_params)
    for t in steps:
        mus, sigmas = step_params[t]
        z_t = z[:, t, :][:, None, :]
        loss, d_mu, d_sigma = gaussian_nll_seq(
            z_t, mus[:, None, :], sigmas[:, None, :], weights=weight
        )
        total_loss += loss / len(steps)
        grads[t] = (d_mu[:, 0, :] / len(steps), d_sigma[:, 0, :] / len(steps))

    if not with_backward:
        lstm.clear_cache()
        model.head.clear_cache()
        return float(total_loss)

    # backward pass: heads (reverse order), then BPTT through the stack
    dh_by_step: Dict[int, np.ndarray] = {}
    for t in reversed(steps):
        d_mu, d_sigma = grads[t]
        dh_by_step[t] = model.head.backward(d_mu, d_sigma)

    dstates = None
    for t in reversed(range(1, total_len)):
        dh_top = dh_by_step.get(t, np.zeros((batch_size, model.hidden_dim)))
        _, dstates = lstm.step_backward(dh_top, dstates)
    return float(total_loss)
