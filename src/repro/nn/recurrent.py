"""Recurrent layers: LSTM cell and the stacked-cell base shared with the GRU.

Each cell has one training path and one inference kernel.  Training runs
the fused full-sequence path (``forward_sequence`` /
``backward_sequence``): the input projections of all ``T`` steps run as
one ``(B*T, 4H)`` GEMM, the per-step caches live in preallocated
``(T, B, .)`` tensors, the four gate backwards write into one
preallocated ``dgates`` buffer, and the ``w_x``/``w_h`` gradients
accumulate through two reshaped batched GEMMs over the whole sequence.
Inference — the DeepAR decoders interleave sampling with the recurrence,
so they step — runs on a cache-free kernel: ``step_decode`` /
``sequence_decode`` over a reusable :class:`LSTMDecodeContext`, driven by
:class:`repro.nn.inference.StackInference`.  :class:`RecurrentStack` is
the one layer-major stacking loop of :class:`StackedLSTM` and
:class:`~repro.nn.gru.StackedGRU`.  The stepwise training math these
replaced is kept as the reference in ``tests/reference/training.py``.

Gate layout in all weight matrices is ``[input, forget, cell, output]``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import initializers as init
from .activations import sigmoid_dense
from .kernels import stable_matmul
from .module import Module, Parameter
from .precision import RowWorkspace

__all__ = ["LSTMState", "LSTMCell", "LSTMDecodeContext", "RecurrentStack", "StackedLSTM"]

# (hidden, cell) pair for one layer
LSTMState = Tuple[np.ndarray, np.ndarray]


def _load_rows(dst: np.ndarray, src: np.ndarray, rows: Optional[np.ndarray]) -> None:
    """Copy ``src`` — or its rows ``rows``, gathered — into ``dst``.

    The gather runs ``np.take`` with ``mode="clip"``: the default
    ``mode="raise"`` buffers ``out`` in a temporary as large as ``dst``,
    which is exactly the fresh memory a reused decode context avoids.
    """
    if rows is None:
        dst[...] = src
    else:
        np.take(src, rows, axis=0, out=dst, mode="clip")


def _load_products(src, rows, products, workspace: RowWorkspace) -> None:
    """Write ``h @ w`` into ``dst`` for each ``(w, dst)`` of ``products``,
    where ``h`` is the state a context loads: ``src``, or its rows
    ``rows``, gathered.

    With ``rows`` — the decode's lap 2, where every sample of a request
    starts from the request's state — the products run once per source
    row, into ``workspace``'s owned rows, and are gathered into ``dst``.
    ``stable_matmul`` rows do not depend on the rest of the batch, so this
    is bitwise the product over the gathered rows.
    """
    if rows is None:
        for w, dst in products:
            stable_matmul(src, w, out=dst)
        return
    for (w, dst), buf in zip(products, workspace.take(len(src))):
        stable_matmul(src, w, out=buf)
        np.take(buf, rows, axis=0, out=dst, mode="clip")


class LSTMDecodeContext:
    """Reusable workspace for one cell's inference kernel.

    Holds the ``[i, f, o, g]``-permuted weight copies (sigmoid gates
    contiguous), the running ``(h, c)`` state, every per-step scratch
    tensor and the ``(B*T)``-row projection and output buffers of
    :meth:`LSTMCell.sequence_decode`.  :meth:`load` starts a session on the
    leading rows of the owned buffers (growing them only past their
    high-water row count) and computes the first step's recurrent product
    ``h @ w_h`` into ``hw`` (``hw_loaded``), once per source row when the
    load gathers rows; :meth:`LSTMCell.step_decode` advances the session
    without allocating, so a long-lived context — the serving engine keeps
    one per layer — touches no fresh memory per session either.
    ``h``/``c`` and the scratch attributes are ``[:rows]`` views, valid
    until the next :meth:`load`; :meth:`state` copies the state out.
    """

    __slots__ = (
        "cell", "dtype", "w_x", "w_h", "bias", "_rows", "_seq_rows", "_src_rows",
        "h", "c", "gates", "hw", "hw_loaded", "ig", "tanh_c", "sg_scratch",
    )

    def __init__(self, cell: "LSTMCell", dtype=np.float64) -> None:
        self.cell = cell
        self.dtype = np.dtype(dtype)
        hd = cell.hidden_dim
        self.w_x = np.empty((cell.input_dim, 4 * hd), dtype=self.dtype)
        self.w_h = np.empty((hd, 4 * hd), dtype=self.dtype)
        self.bias = np.empty(4 * hd, dtype=self.dtype)
        # h, c, gates, hw, ig, tanh_c and the sigmoid scratch block
        self._rows = RowWorkspace((hd, hd, 4 * hd, 4 * hd, hd, hd, 3 * hd), dtype=self.dtype)
        # sequence_decode's input projection and outputs, one row per (b, t)
        self._seq_rows = RowWorkspace((4 * hd, hd), dtype=self.dtype)
        # load's recurrent product on the source rows of a gathering load
        self._src_rows = RowWorkspace((4 * hd,), dtype=self.dtype)

    def load(self, state: LSTMState, rows: Optional[np.ndarray] = None) -> "LSTMDecodeContext":
        """Start a session from ``state`` (its rows ``rows``, if given).

        Re-reads the cell's current weights into the permuted copies — a
        float64 context shares the training parameters, so in-place weight
        updates are always picked up — writes the initial ``(h, c)``
        into the leading rows of the state buffers, and the first step's
        ``h @ w_h`` into ``hw``.
        """
        cell = self.cell
        perm = cell._gate_perm
        np.take(cell.w_x.data, perm, axis=1, out=self.w_x, mode="clip")
        np.take(cell.w_h.data, perm, axis=1, out=self.w_h, mode="clip")
        np.take(cell.bias.data, perm, out=self.bias, mode="clip")
        h0, c0 = state
        n = len(h0) if rows is None else len(rows)
        self.h, self.c, self.gates, self.hw, self.ig, self.tanh_c, self.sg_scratch = self._rows.take(n)
        _load_rows(self.h, h0, rows)
        _load_rows(self.c, c0, rows)
        _load_products(h0, rows, ((self.w_h, self.hw),), self._src_rows)
        self.hw_loaded = True
        return self

    def state(self) -> LSTMState:
        """Fresh copies of the running ``(h, c)``."""
        return self.h.copy(), self.c.copy()


def _sigmoid_inplace(a: np.ndarray) -> None:
    """In-place logistic sigmoid via ``0.5 * (1 + tanh(x / 2))``.

    One ufunc pass, no masking and no overflow — the fused sequence kernels
    are Python-overhead bound at training batch sizes, so the hot loop uses
    this instead of the allocating masked implementation in
    :mod:`repro.nn.activations` (equal to it within ~1 ulp).
    """
    np.multiply(a, 0.5, out=a)
    np.tanh(a, out=a)
    np.multiply(a, 0.5, out=a)
    np.add(a, 0.5, out=a)


class LSTMCell(Module):
    """A single LSTM cell operating on one time step.

    Parameters
    ----------
    input_dim:
        Dimension of the per-step input vector.
    hidden_dim:
        Dimension of the hidden and cell states.
    forget_bias:
        Initial value of the forget-gate bias (helps gradient flow early in
        training).
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        forget_bias: float = 1.0,
        rng: np.random.Generator | int | None = None,
        name: str = "lstm_cell",
    ) -> None:
        super().__init__()
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.input_dim = int(input_dim)
        self.hidden_dim = int(hidden_dim)
        self.w_x = Parameter(
            init.xavier_uniform((input_dim, 4 * hidden_dim), rng=rng), f"{name}.w_x"
        )
        self.w_h = Parameter(
            init.orthogonal((hidden_dim, 4 * hidden_dim), rng=rng), f"{name}.w_h"
        )
        self.bias = Parameter(init.lstm_bias(hidden_dim, forget_bias), f"{name}.bias")
        self._seq_cache: List[tuple] = []
        # fused-path gate order [i, f, o, g]: the three sigmoid gates become
        # one contiguous block so the whole gate matrix goes through a single
        # tanh pass per step (sigmoid(x) = 0.5 + 0.5 * tanh(x / 2))
        hd = self.hidden_dim
        self._gate_perm = np.concatenate(
            [np.arange(0, hd), np.arange(hd, 2 * hd), np.arange(3 * hd, 4 * hd), np.arange(2 * hd, 3 * hd)]
        )

    # ------------------------------------------------------------------
    def zero_state(self, batch_size: int, dtype=np.float64) -> LSTMState:
        h = np.zeros((batch_size, self.hidden_dim), dtype=dtype)
        c = np.zeros((batch_size, self.hidden_dim), dtype=dtype)
        return h, c

    def clear_cache(self) -> None:
        self._seq_cache.clear()

    # inference kernel --------------------------------------------------
    def step_decode(self, x: np.ndarray, ctx: LSTMDecodeContext) -> np.ndarray:
        """One inference step on the session loaded into ``ctx``.

        Runs the same ``stable_matmul`` products as the masked-sigmoid
        reference step (``tests/reference/recurrent.py``), byte for byte,
        but on the permuted gate layout, so the three sigmoid gates form one
        contiguous block evaluated by a single :func:`sigmoid_dense` call
        (bitwise equal to the masked :func:`sigmoid`).  The training path's
        half-scaled ``tanh``-only gate trick (:meth:`_fused_gate_weights`)
        is deliberately *not* used here: inference is gated on
        byte-identity with that reference, and
        ``0.5 + 0.5 * tanh(x / 2)`` differs from the masked sigmoid in the
        last ulp for ~58% of inputs.  All intermediates live in the context
        buffers; the returned hidden state is a view of the context's ``h``
        buffer (valid until the next step).
        """
        stable_matmul(x, ctx.w_x, out=ctx.gates)
        return self._decode_tail(ctx)

    def sequence_decode(self, x: np.ndarray, ctx: LSTMDecodeContext) -> np.ndarray:
        """Run a known ``(B, T, input_dim)`` sequence from the loaded state.

        The input projections of all ``T`` steps run as one
        ``stable_matmul`` into the context's ``(B*T)``-row buffer; each step
        then copies its rows into ``ctx.gates`` and runs :meth:`step_decode`'s
        recurrent tail.  ``stable_matmul`` rows are batch-size invariant, so
        this is byte-identical to ``T`` :meth:`step_decode` calls.  Returns
        the ``(B, T, H)`` outputs as a view of the context's buffer (valid
        until the next call); ``ctx`` holds the final state.
        """
        batch, steps, width = x.shape
        proj, out = ctx._seq_rows.take(batch * steps)
        stable_matmul(x.reshape(batch * steps, width), ctx.w_x, out=proj)
        proj = proj.reshape(batch, steps, proj.shape[1])
        out = out.reshape(batch, steps, out.shape[1])
        for t in range(steps):
            ctx.gates[...] = proj[:, t]
            out[:, t] = self._decode_tail(ctx)
        return out

    def _decode_tail(self, ctx: LSTMDecodeContext) -> np.ndarray:
        """The recurrent half of a step, given the input projection in
        ``ctx.gates``: adds ``h_prev @ w_h`` (the product ``load`` left in
        ``ctx.hw`` on a session's first step) and the bias, applies the gate
        non-linearities and updates ``(h, c)`` in place."""
        hd = self.hidden_dim
        gates = ctx.gates
        rows = len(gates)
        if ctx.hw_loaded:
            ctx.hw_loaded = False
        else:
            stable_matmul(ctx.h, ctx.w_h, out=ctx.hw)
        # same left-to-right accumulation as the reference step:
        # (x @ w_x + h_prev @ w_h) + bias, merely column-permuted; the bias
        # pass writes the gates gate-major, (4, rows, H), into the consumed
        # ``hw`` buffer, so every gate below is one contiguous block and
        # each elementwise pass runs as a single loop instead of one per row
        gates += ctx.hw
        gm = ctx.hw.reshape(4, rows, hd)
        np.add(gates.reshape(rows, 4, hd).transpose(1, 0, 2), ctx.bias.reshape(4, 1, hd), out=gm)
        sg = gm[:3]  # [i, f, o] block (one dense pass, no scatter)
        sigmoid_dense(sg, out=sg, scratch=ctx.sg_scratch.reshape(3, rows, hd))
        i, f, o, g = gm
        np.tanh(g, out=g)
        # c = f * c_prev + i * g, h = o * tanh(c) — identical operand order
        np.multiply(i, g, out=ctx.ig)
        np.multiply(f, ctx.c, out=ctx.c)
        ctx.c += ctx.ig
        np.tanh(ctx.c, out=ctx.tanh_c)
        np.multiply(o, ctx.tanh_c, out=ctx.h)
        return ctx.h

    # fused full-sequence path -----------------------------------------
    def _fused_gate_weights(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Permuted ``[i, f, o, g]`` weight/bias copies with the sigmoid
        columns pre-scaled by 1/2.

        With the scaling, ``tanh`` over the whole gate block evaluates
        ``tanh(x/2)`` for the sigmoid gates and ``tanh(x)`` for the cell
        candidate in one pass; ``0.5 + 0.5 * tanh(x/2)`` then recovers the
        exact sigmoid with a single cheap fix-up over the contiguous
        sigmoid block.  The copies are tiny (``(I+H+1, 4H)``) and rebuilt
        per call, so optimiser updates are always picked up.
        """
        perm = self._gate_perm
        hd = self.hidden_dim
        w_x_f = self.w_x.data[:, perm]
        w_x_f[:, : 3 * hd] *= 0.5
        w_h_f = self.w_h.data[:, perm]
        w_h_f[:, : 3 * hd] *= 0.5
        b_f = self.bias.data[perm]
        b_f[: 3 * hd] *= 0.5
        return w_x_f, w_h_f, b_f

    def forward_sequence(
        self,
        x: np.ndarray,
        state: Optional[LSTMState] = None,
        with_cache: bool = True,
    ) -> Tuple[np.ndarray, LSTMState]:
        """Teacher-forced pass over a full ``(B, T, input_dim)`` sequence.

        The input projections (and the bias) of all ``T`` steps run as a
        single fused GEMM through :func:`repro.nn.kernels.stable_matmul`;
        only the recurrent ``h @ w_h`` product remains per-step.  All
        intermediates live in preallocated time-major ``(T, B, .)`` tensors
        (contiguous per-step slices) in the fused ``[i, f, o, g]`` gate
        order, and all four gate non-linearities collapse into one in-place
        ``tanh`` pass plus a sigmoid fix-up (see
        :meth:`_fused_gate_weights`).  With ``with_cache=False``
        (evaluation) no backward tensors are retained at all.

        The returned ``(B, T, H)`` output array is a transposed view of the
        time-major buffer, so stacking layers chains without copies.
        """
        x = np.asarray(x, dtype=np.float64)
        batch, steps, _ = x.shape
        hd = self.hidden_dim
        if state is None:
            h, c = self.zero_state(batch)
        else:
            h, c = state
        if steps == 0:
            return np.empty((batch, 0, hd), dtype=np.float64), (h, c)
        w_x_f, w_h_f, b_f = self._fused_gate_weights()
        # time-major input: per-step slices are contiguous
        x_tm = np.ascontiguousarray(x.transpose(1, 0, 2))
        # one (T*B, 4H) GEMM for every step's input projection (+ bias)
        gates = stable_matmul(x_tm.reshape(steps * batch, self.input_dim), w_x_f)
        gates = gates.reshape(steps, batch, 4 * hd)
        gates += b_f
        out_tm = np.empty((steps, batch, hd), dtype=np.float64)
        hw = np.empty((batch, 4 * hd), dtype=np.float64)
        h0, c0 = h, c
        if with_cache:
            cell_tm = np.empty((steps, batch, hd), dtype=np.float64)
            tanh_c_tm = np.empty((steps, batch, hd), dtype=np.float64)
        else:
            cell_tm = tanh_c_tm = None
            c_buf = np.empty((batch, hd), dtype=np.float64)
            tanh_buf = np.empty((batch, hd), dtype=np.float64)
        for t in range(steps):
            ga = gates[t]  # activations overwrite the pre-activations in place
            np.matmul(h, w_h_f, out=hw)
            ga += hw
            np.tanh(ga, out=ga)
            sg = ga[:, : 3 * hd]  # [i, f, o] block: 0.5 + 0.5 * tanh(x/2)
            sg *= 0.5
            sg += 0.5
            c_t = cell_tm[t] if with_cache else c_buf
            np.multiply(ga[:, hd : 2 * hd], c, out=c_t)  # f * c_prev
            c_t += ga[:, :hd] * ga[:, 3 * hd :]  # + i * g
            tanh_c = tanh_c_tm[t] if with_cache else tanh_buf
            np.tanh(c_t, out=tanh_c)
            np.multiply(ga[:, 2 * hd : 3 * hd], tanh_c, out=out_tm[t])
            h = out_tm[t]
            c = c_t
        if with_cache:
            self._seq_cache.append((x_tm, gates, cell_tm, tanh_c_tm, out_tm, h0, c0))
            return out_tm.transpose(1, 0, 2), (h, c)
        return out_tm.transpose(1, 0, 2), (h, c.copy())

    def backward_sequence(
        self,
        d_outputs: np.ndarray,
        d_state: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """Fused BPTT for the most recent :meth:`forward_sequence` call.

        Gate gradients of every step are written into one preallocated
        ``(T, B, 4H)`` buffer (no per-step ``np.concatenate``); the
        ``w_x``/``w_h``/``bias`` gradients then accumulate through reshaped
        full-sequence GEMMs instead of one small GEMM per step, and only the
        recurrent ``dgates @ w_h.T`` product remains in the loop.

        Returns ``(dx, (dh0, dc0))`` — the gradient w.r.t. the inputs and
        the initial state.
        """
        if not self._seq_cache:
            raise RuntimeError("backward_sequence called more times than forward_sequence")
        x_tm, gates, cell_tm, tanh_c_tm, out_tm, h0, c0 = self._seq_cache.pop()
        d_out_tm = np.ascontiguousarray(
            np.asarray(d_outputs, dtype=np.float64).transpose(1, 0, 2)
        )
        steps, batch, hd = d_out_tm.shape
        perm = self._gate_perm
        if d_state is None:
            dh_next = np.zeros((batch, hd), dtype=np.float64)
            dc_next = np.zeros((batch, hd), dtype=np.float64)
        else:
            dh_next, dc_next = d_state
        dgates = np.empty((steps, batch, 4 * hd), dtype=np.float64)
        dh = np.empty((batch, hd), dtype=np.float64)
        dc_total = np.empty((batch, hd), dtype=np.float64)
        dh_buf = np.empty((batch, hd), dtype=np.float64)
        dc_buf = np.empty((batch, hd), dtype=np.float64)
        # hoist the activation-derivative factors out of the time loop:
        # sigma' = a * (1 - a) for the [i, f, o] block, tanh' = 1 - a^2 for
        # the candidate and the cell tanh — three full-tensor passes instead
        # of six small strided passes per step
        deriv = np.empty_like(gates)
        sig_block = gates[:, :, : 3 * hd]
        d_sig = deriv[:, :, : 3 * hd]
        np.subtract(1.0, sig_block, out=d_sig)
        d_sig *= sig_block
        g_block = gates[:, :, 3 * hd :]
        d_g = deriv[:, :, 3 * hd :]
        np.multiply(g_block, g_block, out=d_g)
        np.subtract(1.0, d_g, out=d_g)
        dtanh_c = np.empty_like(tanh_c_tm)
        np.multiply(tanh_c_tm, tanh_c_tm, out=dtanh_c)
        np.subtract(1.0, dtanh_c, out=dtanh_c)
        # permuted, unscaled recurrent weights for the in-loop dh product
        w_h_perm_t = np.ascontiguousarray(self.w_h.data[:, perm].T)
        for t in reversed(range(steps)):
            ga = gates[t]  # [i, f, o, g] activations
            i = ga[:, :hd]
            f = ga[:, hd : 2 * hd]
            o = ga[:, 2 * hd : 3 * hd]
            g = ga[:, 3 * hd :]
            tanh_c = tanh_c_tm[t]
            c_prev = cell_tm[t - 1] if t > 0 else c0
            np.add(d_out_tm[t], dh_next, out=dh)
            # dc_total = dc_next + dh * o * (1 - tanh_c^2)
            np.multiply(dh, o, out=dc_total)
            dc_total *= dtanh_c[t]
            dc_total += dc_next
            dg = dgates[t]
            # raw upstream gate gradients, then one fused derivative pass
            np.multiply(dc_total, g, out=dg[:, :hd])
            np.multiply(dc_total, c_prev, out=dg[:, hd : 2 * hd])
            np.multiply(dh, tanh_c, out=dg[:, 2 * hd : 3 * hd])
            np.multiply(dc_total, i, out=dg[:, 3 * hd :])
            dg *= deriv[t]
            np.multiply(dc_total, f, out=dc_buf)
            dc_next = dc_buf
            np.matmul(dg, w_h_perm_t, out=dh_buf)
            dh_next = dh_buf
        dgates_flat = dgates.reshape(steps * batch, 4 * hd)
        # scatter the permuted-layout gradients back into the [i, f, g, o]
        # parameter columns (perm is a permutation, so += is safe)
        self.w_x.grad[:, perm] += x_tm.reshape(steps * batch, self.input_dim).T @ dgates_flat
        # h_prev per step is [h0, out_0, ..., out_{T-2}]
        dw_h = h0.T @ dgates[0]
        if steps > 1:
            dw_h += (
                out_tm[: steps - 1].reshape((steps - 1) * batch, hd).T
                @ dgates[1:].reshape((steps - 1) * batch, 4 * hd)
            )
        self.w_h.grad[:, perm] += dw_h
        self.bias.grad[perm] += dgates_flat.sum(axis=0)
        dx_tm = (dgates_flat @ self.w_x.data[:, perm].T).reshape(
            steps, batch, self.input_dim
        )
        return dx_tm.transpose(1, 0, 2), (dh_next.copy(), dc_next.copy())


class RecurrentStack(Module):
    """A stack of recurrent cells with optional inter-layer dropout.

    The one stacking loop behind :class:`StackedLSTM` and
    :class:`~repro.nn.gru.StackedGRU`: layer-major ``forward_sequence`` /
    ``backward_sequence`` over the cells' fused sequence path.  Per-layer
    states are whatever the cell carries — ``(h, c)`` pairs for the LSTM,
    ``h`` arrays for the GRU.  ``cell_cls(in, hidden, rng=, name=)`` builds
    each layer, drawing its weights from ``rng`` in layer order.
    """

    def __init__(
        self,
        cell_cls,
        name: str,
        input_dim: int,
        hidden_dim: int,
        num_layers: int,
        dropout: float,
        rng: np.random.Generator | int | None,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.input_dim = int(input_dim)
        self.hidden_dim = int(hidden_dim)
        self.num_layers = int(num_layers)
        self.dropout_rate = float(dropout)
        self.rng = rng
        self.cells = [
            cell_cls(
                input_dim if layer == 0 else hidden_dim,
                hidden_dim,
                rng=rng,
                name=f"{name}.{layer}",
            )
            for layer in range(num_layers)
        ]
        self._seq_dropout_cache: List[Optional[np.ndarray]] = []

    def zero_state(self, batch_size: int, dtype=np.float64) -> list:
        return [cell.zero_state(batch_size, dtype=dtype) for cell in self.cells]

    def _sequence_dropout_masks(
        self, batch: int, steps: int
    ) -> Optional[np.ndarray]:
        """Inter-layer dropout masks for a full-sequence pass.

        Drawn as one ``(T, L-1, B, H)`` block, which consumes the RNG stream
        per step, then per layer — the order of a time-major step loop, so
        the stepwise reference (``tests/reference/training.py``) draws the
        same masks under the same seed.
        """
        if not (self.training and self.dropout_rate > 0.0 and self.num_layers > 1):
            return None
        keep = 1.0 - self.dropout_rate
        draws = self.rng.random((steps, self.num_layers - 1, batch, self.hidden_dim))
        return (draws < keep).astype(np.float64) / keep

    def forward_sequence(
        self,
        x: np.ndarray,
        states: Optional[Sequence] = None,
        with_cache: bool = True,
    ) -> Tuple[np.ndarray, list]:
        """Fused teacher-forced pass over ``(B, T, input_dim)``.

        Layers are processed one after the other over the whole sequence
        (layer-major), so every layer's input projection is a single fused
        GEMM.  Results are identical to the time-major step loop.  With
        ``with_cache=False`` no backward state is retained (cheap
        validation / encoding).
        """
        x = np.asarray(x, dtype=np.float64)
        batch, steps, _ = x.shape
        if states is None:
            states = self.zero_state(batch)
        masks = self._sequence_dropout_masks(batch, steps)
        h_seq = x
        final_states = []
        for layer, cell in enumerate(self.cells):
            h_seq, state = cell.forward_sequence(h_seq, states[layer], with_cache=with_cache)
            final_states.append(state)
            if masks is not None and layer < self.num_layers - 1:
                # masks[:, layer] is (T, B, H); move time behind batch
                h_seq = h_seq * masks[:, layer].transpose(1, 0, 2)
        if with_cache:
            self._seq_dropout_cache.append(masks)
        return h_seq, final_states

    def backward_sequence(
        self,
        d_outputs: np.ndarray,
        d_final_states: Optional[Sequence] = None,
    ) -> Tuple[np.ndarray, list]:
        """Fused BPTT matching the most recent :meth:`forward_sequence`.

        Returns ``(dx, d_initial_states)``.
        """
        if not self._seq_dropout_cache:
            raise RuntimeError(
                "backward_sequence called more times than forward_sequence"
            )
        masks = self._seq_dropout_cache.pop()
        grad = np.asarray(d_outputs, dtype=np.float64)
        d_initial: list = [None] * self.num_layers
        for layer in reversed(range(self.num_layers)):
            if masks is not None and layer < self.num_layers - 1:
                grad = grad * masks[:, layer].transpose(1, 0, 2)
            d_state = None if d_final_states is None else d_final_states[layer]
            grad, d_init = self.cells[layer].backward_sequence(grad, d_state)
            d_initial[layer] = d_init
        return grad, d_initial

    def clear_cache(self) -> None:
        self._seq_dropout_cache.clear()
        for cell in self.cells:
            cell.clear_cache()


class StackedLSTM(RecurrentStack):
    """A stack of LSTM layers with an optional inter-layer dropout.

    This mirrors the GluonTS DeepAR default used in the paper (two stacked
    LSTM layers with 40 units each, parameters shared between encoder and
    decoder).
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        num_layers: int = 2,
        dropout: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(LSTMCell, "lstm", input_dim, hidden_dim, num_layers, dropout, rng)

    # ------------------------------------------------------------------
    # batched state save / restore (used by the serving engine to carry
    # warm-up states between forecast origins)
    # ------------------------------------------------------------------
    def export_state(self, states: Sequence[LSTMState]) -> np.ndarray:
        """Pack per-layer ``(h, c)`` pairs into one ``(L, 2, B, H)`` array."""
        if len(states) != self.num_layers:
            raise ValueError(f"expected {self.num_layers} states, got {len(states)}")
        return np.stack([np.stack([h, c]) for h, c in states])

    def import_state(self, packed: np.ndarray, dtype=np.float64) -> List[LSTMState]:
        """Inverse of :meth:`export_state`; returns fresh per-layer copies."""
        packed = np.asarray(packed, dtype=dtype)
        if packed.ndim != 4 or packed.shape[0] != self.num_layers or packed.shape[1] != 2:
            raise ValueError(
                f"expected shape ({self.num_layers}, 2, B, {self.hidden_dim}), "
                f"got {packed.shape}"
            )
        if packed.shape[3] != self.hidden_dim:
            raise ValueError(f"hidden dim mismatch: {packed.shape[3]} != {self.hidden_dim}")
        return [(packed[layer, 0].copy(), packed[layer, 1].copy()) for layer in range(self.num_layers)]
