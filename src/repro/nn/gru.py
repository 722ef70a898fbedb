"""GRU cell and stacked GRU (alternative recurrent backbone).

The paper's RankModel uses stacked LSTM cells; a GRU backbone is a common
lighter-weight alternative (fewer parameters, one state vector instead of
two).  The cell follows the standard formulation

    r_t = sigmoid(W_r [x_t, h_{t-1}] + b_r)        (reset gate)
    u_t = sigmoid(W_u [x_t, h_{t-1}] + b_u)        (update gate)
    n_t = tanh(W_n x_t + r_t * (U_n h_{t-1}) + b_n)
    h_t = (1 - u_t) * n_t + u_t * h_{t-1}

and has the same two paths as :class:`repro.nn.recurrent.LSTMCell`, so
the two backbones are interchangeable: the fused full-sequence
``forward_sequence`` / ``backward_sequence`` for teacher-forced training,
and the ``step_decode`` / ``sequence_decode`` inference kernel the serving
engine runs.  :class:`StackedGRU` stacks the cells on the same
:class:`~repro.nn.recurrent.RecurrentStack` loop as the LSTM.  The
stepwise training reference lives in ``tests/reference/training.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import initializers as init
from .activations import sigmoid_dense
from .kernels import stable_matmul
from .module import Module, Parameter
from .precision import RowWorkspace
from .recurrent import RecurrentStack, _load_products, _load_rows, _sigmoid_inplace

__all__ = ["GRUCell", "GRUDecodeContext", "StackedGRU"]


class GRUDecodeContext:
    """Reusable workspace for one GRU cell's inference kernel.

    The GRU's fused gate matrices are already laid out ``[reset, update]``
    — both sigmoid gates contiguous — so unlike the LSTM no column
    permutation (and no weight copy) is needed: :meth:`GRUCell.step_decode`
    reads the cell's current weights directly.  The context owns the
    running hidden state, the per-step scratch tensors and the
    ``(B*T)``-row buffers of :meth:`GRUCell.sequence_decode`; like
    :class:`~repro.nn.recurrent.LSTMDecodeContext`, :meth:`load` starts a
    session on the leading rows of those buffers and computes the first
    step's recurrent products (``hw``, ``h_proj``; ``hw_loaded``), once per
    source row when it gathers rows, the row attributes are ``[:rows]``
    views valid until the next :meth:`load`, and :meth:`state` copies the
    state out.
    """

    __slots__ = (
        "cell", "dtype", "_rows", "_seq_rows", "_src_rows",
        "h", "gates", "hw", "h_proj", "hw_loaded", "n", "t1", "t2", "sg_scratch",
    )

    def __init__(self, cell: "GRUCell", dtype=np.float64) -> None:
        self.cell = cell
        self.dtype = np.dtype(dtype)
        hd = cell.hidden_dim
        # h, gates, hw, h_proj, n, t1, t2 and the sigmoid scratch block
        self._rows = RowWorkspace((hd, 2 * hd, 2 * hd, hd, hd, hd, hd, 2 * hd), dtype=self.dtype)
        # sequence_decode's gate and candidate input projections and outputs
        self._seq_rows = RowWorkspace((2 * hd, hd, hd), dtype=self.dtype)
        # load's recurrent products on the source rows of a gathering load
        self._src_rows = RowWorkspace((2 * hd, hd), dtype=self.dtype)

    def load(self, h0: np.ndarray, rows: Optional[np.ndarray] = None) -> "GRUDecodeContext":
        """Start a session from ``h0`` (its rows ``rows``, if given) and
        compute the first step's ``h @ w_h_gates`` and ``h @ w_h_cand``."""
        n = len(h0) if rows is None else len(rows)
        (self.h, self.gates, self.hw, self.h_proj, self.n,
         self.t1, self.t2, self.sg_scratch) = self._rows.take(n)
        _load_rows(self.h, h0, rows)
        cell = self.cell
        _load_products(
            h0, rows, ((cell.w_h_gates.data, self.hw), (cell.w_h_cand.data, self.h_proj)),
            self._src_rows,
        )
        self.hw_loaded = True
        return self

    def state(self) -> np.ndarray:
        """A fresh copy of the running hidden state."""
        return self.h.copy()


class GRUCell(Module):
    """A single GRU cell operating on one time step."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator | int | None = None,
        name: str = "gru_cell",
    ) -> None:
        super().__init__()
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.input_dim = int(input_dim)
        self.hidden_dim = int(hidden_dim)
        # gate order in the fused matrices: [reset, update]
        self.w_x_gates = Parameter(
            init.xavier_uniform((input_dim, 2 * hidden_dim), rng=rng), f"{name}.w_x_gates"
        )
        self.w_h_gates = Parameter(
            init.orthogonal((hidden_dim, 2 * hidden_dim), rng=rng), f"{name}.w_h_gates"
        )
        self.b_gates = Parameter(init.zeros((2 * hidden_dim,)), f"{name}.b_gates")
        self.w_x_cand = Parameter(
            init.xavier_uniform((input_dim, hidden_dim), rng=rng), f"{name}.w_x_cand"
        )
        self.w_h_cand = Parameter(
            init.orthogonal((hidden_dim, hidden_dim), rng=rng), f"{name}.w_h_cand"
        )
        self.b_cand = Parameter(init.zeros((hidden_dim,)), f"{name}.b_cand")
        self._seq_cache: List[tuple] = []

    def zero_state(self, batch_size: int, dtype=np.float64) -> np.ndarray:
        return np.zeros((batch_size, self.hidden_dim), dtype=dtype)

    def clear_cache(self) -> None:
        self._seq_cache.clear()

    # inference kernel --------------------------------------------------
    def step_decode(self, x: np.ndarray, ctx: GRUDecodeContext) -> np.ndarray:
        """One inference step on the session loaded into ``ctx``.

        Byte-identical to the masked-sigmoid reference step
        (``tests/reference/recurrent.py``): the same ``stable_matmul``
        products and operand order, with both sigmoid gates evaluated by a
        single :func:`sigmoid_dense` pass over the contiguous ``[r, u]``
        block and every intermediate written into the context buffers.  The
        returned hidden state is a view of the context's ``h`` buffer (valid
        until the next step).
        """
        stable_matmul(x, self.w_x_gates.data, out=ctx.gates)
        stable_matmul(x, self.w_x_cand.data, out=ctx.n)
        return self._decode_tail(ctx)

    def sequence_decode(self, x: np.ndarray, ctx: GRUDecodeContext) -> np.ndarray:
        """Run a known ``(B, T, input_dim)`` sequence from the loaded state.

        Both input projections of all ``T`` steps run as one
        ``stable_matmul`` each; every step then copies its rows into
        ``ctx.gates``/``ctx.n`` and runs :meth:`step_decode`'s recurrent
        tail (see :meth:`repro.nn.recurrent.LSTMCell.sequence_decode`).
        """
        batch, steps, width = x.shape
        flat = x.reshape(batch * steps, width)
        proj_gates, proj_cand, out = ctx._seq_rows.take(batch * steps)
        stable_matmul(flat, self.w_x_gates.data, out=proj_gates)
        stable_matmul(flat, self.w_x_cand.data, out=proj_cand)
        proj_gates, proj_cand, out = (
            a.reshape(batch, steps, a.shape[1]) for a in (proj_gates, proj_cand, out)
        )
        for t in range(steps):
            ctx.gates[...] = proj_gates[:, t]
            ctx.n[...] = proj_cand[:, t]
            out[:, t] = self._decode_tail(ctx)
        return out

    def _decode_tail(self, ctx: GRUDecodeContext) -> np.ndarray:
        """The recurrent half of a step, given the gate and candidate input
        projections in ``ctx.gates`` and ``ctx.n``; updates ``h`` in place.
        On a session's first step the recurrent products are the ones
        ``load`` left in ``ctx.hw`` and ``ctx.h_proj``."""
        hd = self.hidden_dim
        gates = ctx.gates
        if ctx.hw_loaded:
            ctx.hw_loaded = False
        else:
            stable_matmul(ctx.h, self.w_h_gates.data, out=ctx.hw)
            stable_matmul(ctx.h, self.w_h_cand.data, out=ctx.h_proj)
        gates += ctx.hw
        gates += self.b_gates.data
        sigmoid_dense(gates, out=gates, scratch=ctx.sg_scratch)
        # n = tanh(x @ w_x_cand + r * h_proj + b_cand) — identical order
        np.multiply(gates[:, :hd], ctx.h_proj, out=ctx.t1)
        ctx.n += ctx.t1
        ctx.n += self.b_cand.data
        np.tanh(ctx.n, out=ctx.n)
        # h = (1 - u) * n + u * h_prev
        u = gates[:, hd:]
        np.subtract(1.0, u, out=ctx.t1)
        ctx.t1 *= ctx.n
        np.multiply(u, ctx.h, out=ctx.t2)
        np.add(ctx.t1, ctx.t2, out=ctx.h)
        return ctx.h

    # fused full-sequence path -----------------------------------------
    def forward_sequence(
        self,
        x: np.ndarray,
        h0: Optional[np.ndarray] = None,
        with_cache: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Teacher-forced pass over ``(B, T, input_dim)`` with the gate and
        candidate input projections (+ biases) fused into two full-sequence
        GEMMs.  Intermediates live in preallocated time-major ``(T, B, .)``
        tensors with in-place non-linearities (mirrors
        :meth:`repro.nn.recurrent.LSTMCell.forward_sequence`).
        """
        x = np.asarray(x, dtype=np.float64)
        batch, steps, _ = x.shape
        hd = self.hidden_dim
        h = h0 if h0 is not None else self.zero_state(batch)
        if steps == 0:
            return np.empty((batch, 0, hd), dtype=np.float64), h
        h_init = h
        x_tm = np.ascontiguousarray(x.transpose(1, 0, 2))
        flat = x_tm.reshape(steps * batch, self.input_dim)
        gates = stable_matmul(flat, self.w_x_gates.data).reshape(steps, batch, 2 * hd)
        gates += self.b_gates.data
        cand = stable_matmul(flat, self.w_x_cand.data).reshape(steps, batch, hd)
        cand += self.b_cand.data
        out_tm = np.empty((steps, batch, hd), dtype=np.float64)
        hw = np.empty((batch, 2 * hd), dtype=np.float64)
        if with_cache:
            h_proj_tm = np.empty((steps, batch, hd), dtype=np.float64)
        else:
            hp_buf = np.empty((batch, hd), dtype=np.float64)
        for t in range(steps):
            ga = gates[t]  # activations overwrite the pre-activations in place
            np.matmul(h, self.w_h_gates.data, out=hw)
            ga += hw
            _sigmoid_inplace(ga)  # reset + update gates together
            hp = h_proj_tm[t] if with_cache else hp_buf
            np.matmul(h, self.w_h_cand.data, out=hp)
            n_t = cand[t]  # becomes the candidate activation in place
            n_t += ga[:, :hd] * hp
            np.tanh(n_t, out=n_t)
            # h_new = (1 - u) * n + u * h_prev = n + u * (h_prev - n)
            o_t = out_tm[t]
            np.subtract(h, n_t, out=o_t)
            o_t *= ga[:, hd:]
            o_t += n_t
            h = o_t
        if with_cache:
            self._seq_cache.append((x_tm, gates, cand, h_proj_tm, out_tm, h_init))
        return out_tm.transpose(1, 0, 2), h

    def backward_sequence(
        self, d_outputs: np.ndarray, d_final_state: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused BPTT for the most recent :meth:`forward_sequence` call.

        Gate and candidate pre-activation gradients are written into
        preallocated ``(T, B, .)`` buffers; all parameter gradients then
        accumulate through reshaped full-sequence GEMMs.  Returns
        ``(dx, dh0)``.
        """
        if not self._seq_cache:
            raise RuntimeError("backward_sequence called more times than forward_sequence")
        x_tm, gates, n_tm, h_proj_tm, out_tm, h0 = self._seq_cache.pop()
        d_out_tm = np.ascontiguousarray(
            np.asarray(d_outputs, dtype=np.float64).transpose(1, 0, 2)
        )
        steps, batch, hd = d_out_tm.shape
        dh_next = (
            np.zeros((batch, hd), dtype=np.float64)
            if d_final_state is None
            else np.asarray(d_final_state, dtype=np.float64)
        )
        d_gates = np.empty((steps, batch, 2 * hd), dtype=np.float64)
        d_n_pre = np.empty((steps, batch, hd), dtype=np.float64)
        d_h_proj = np.empty((steps, batch, hd), dtype=np.float64)
        dh = np.empty((batch, hd), dtype=np.float64)
        dh_buf = np.empty((batch, hd), dtype=np.float64)
        mm_buf = np.empty((batch, hd), dtype=np.float64)
        # hoist the activation-derivative factors out of the time loop
        # (full-tensor passes instead of per-step strided ones)
        gderiv = np.empty_like(gates)  # sigma' = a * (1 - a) for [r, u]
        np.subtract(1.0, gates, out=gderiv)
        gderiv *= gates
        one_minus_u = np.ascontiguousarray(1.0 - gates[:, :, hd:])
        n_deriv = np.empty_like(n_tm)  # tanh' = 1 - n^2
        np.multiply(n_tm, n_tm, out=n_deriv)
        np.subtract(1.0, n_deriv, out=n_deriv)
        hpn = np.empty_like(n_tm)  # h_prev - n per step
        np.subtract(h0, n_tm[0], out=hpn[0])
        if steps > 1:
            np.subtract(out_tm[: steps - 1], n_tm[1:], out=hpn[1:])
        w_h_gates_t = np.ascontiguousarray(self.w_h_gates.data.T)
        w_h_cand_t = np.ascontiguousarray(self.w_h_cand.data.T)
        for t in reversed(range(steps)):
            ga = gates[t]
            r = ga[:, :hd]
            u = ga[:, hd:]
            np.add(d_out_tm[t], dh_next, out=dh)
            dnp = d_n_pre[t]
            np.multiply(dh, one_minus_u[t], out=dnp)
            dnp *= n_deriv[t]
            dhp = d_h_proj[t]
            np.multiply(dnp, r, out=dhp)
            dg = d_gates[t]
            np.multiply(dnp, h_proj_tm[t], out=dg[:, :hd])
            np.multiply(dh, hpn[t], out=dg[:, hd:])
            dg *= gderiv[t]
            np.multiply(dh, u, out=dh_buf)
            np.matmul(dhp, w_h_cand_t, out=mm_buf)
            dh_buf += mm_buf
            np.matmul(dg, w_h_gates_t, out=mm_buf)
            dh_buf += mm_buf
            dh_next = dh_buf
        flat_x = x_tm.reshape(steps * batch, self.input_dim)
        flat_gates = d_gates.reshape(steps * batch, 2 * hd)
        flat_npre = d_n_pre.reshape(steps * batch, hd)
        self.w_x_cand.grad += flat_x.T @ flat_npre
        self.b_cand.grad += flat_npre.sum(axis=0)
        # h_prev per step is [h0, out_0, ..., out_{T-2}]
        self.w_h_cand.grad += h0.T @ d_h_proj[0]
        self.w_h_gates.grad += h0.T @ d_gates[0]
        if steps > 1:
            flat_hprev = out_tm[: steps - 1].reshape((steps - 1) * batch, hd)
            self.w_h_cand.grad += flat_hprev.T @ d_h_proj[1:].reshape((steps - 1) * batch, hd)
            self.w_h_gates.grad += flat_hprev.T @ d_gates[1:].reshape(
                (steps - 1) * batch, 2 * hd
            )
        self.w_x_gates.grad += flat_x.T @ flat_gates
        self.b_gates.grad += flat_gates.sum(axis=0)
        dx = flat_npre @ self.w_x_cand.data.T + flat_gates @ self.w_x_gates.data.T
        dx_tm = dx.reshape(steps, batch, self.input_dim)
        return dx_tm.transpose(1, 0, 2), dh_next.copy()


class StackedGRU(RecurrentStack):
    """A stack of GRU layers on the shared :class:`RecurrentStack` loop.

    States are per-layer hidden vectors (no cell state): the sequence paths
    take and return a list of ``(B, H)`` arrays where the LSTM stack uses
    ``(h, c)`` pairs.  There is no inter-layer dropout (``dropout_rate`` is
    0), so the stack draws no masks.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        num_layers: int = 2,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(GRUCell, "gru", input_dim, hidden_dim, num_layers, 0.0, rng)

    # ------------------------------------------------------------------
    # batched state save / restore (mirrors ``StackedLSTM``)
    # ------------------------------------------------------------------
    def export_state(self, states: Sequence[np.ndarray]) -> np.ndarray:
        """Pack per-layer hidden vectors into one ``(L, B, H)`` array.

        Dtype-preserving (like ``StackedLSTM.export_state``): the carry-mode
        warm-up cache holds packed states in whatever compute dtype the
        owning engine runs.
        """
        if len(states) != self.num_layers:
            raise ValueError(f"expected {self.num_layers} states, got {len(states)}")
        return np.stack([np.asarray(h) for h in states])

    def import_state(self, packed: np.ndarray, dtype=np.float64) -> List[np.ndarray]:
        """Inverse of :meth:`export_state`; returns fresh per-layer copies."""
        packed = np.asarray(packed, dtype=dtype)
        if packed.ndim != 3 or packed.shape[0] != self.num_layers:
            raise ValueError(
                f"expected shape ({self.num_layers}, B, {self.hidden_dim}), got {packed.shape}"
            )
        if packed.shape[2] != self.hidden_dim:
            raise ValueError(f"hidden dim mismatch: {packed.shape[2]} != {self.hidden_dim}")
        return [packed[layer].copy() for layer in range(self.num_layers)]
