"""Multi-head attention and Transformer encoder/decoder blocks.

The paper compares the LSTM-based RankNet against a Transformer-based
implementation (8 attention heads, model dimension 32, GluonTS defaults).
This module provides the equivalent blocks with explicit backward passes:

* :class:`MultiHeadAttention` — scaled dot-product attention with an
  optional additive mask (used for causal decoding);
* :class:`PositionwiseFeedForward` — two dense layers with ReLU;
* :class:`TransformerEncoderLayer` / :class:`TransformerDecoderLayer` —
  pre-norm residual blocks;
* :func:`sinusoidal_positional_encoding` — fixed positional encodings.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .activations import softmax
from .layers import Dense, Dropout, LayerNorm
from .module import Module

__all__ = [
    "sinusoidal_positional_encoding",
    "causal_mask",
    "MultiHeadAttention",
    "PositionwiseFeedForward",
    "TransformerEncoderLayer",
    "TransformerDecoderLayer",
]


def sinusoidal_positional_encoding(length: int, d_model: int) -> np.ndarray:
    """Standard sinusoidal positional encoding of shape ``(length, d_model)``."""
    position = np.arange(length)[:, None].astype(np.float64)
    div_term = np.exp(np.arange(0, d_model, 2) * (-np.log(10000.0) / d_model))
    pe = np.zeros((length, d_model), dtype=np.float64)
    pe[:, 0::2] = np.sin(position * div_term)
    pe[:, 1::2] = np.cos(position * div_term[: pe[:, 1::2].shape[1]])
    return pe


def causal_mask(length: int) -> np.ndarray:
    """Additive mask forbidding attention to future positions."""
    mask = np.zeros((length, length), dtype=np.float64)
    mask[np.triu_indices(length, k=1)] = -1e9
    return mask


class MultiHeadAttention(Module):
    """Scaled dot-product multi-head attention with backward pass."""

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        rng: np.random.Generator | int | None = None,
        name: str = "mha",
    ) -> None:
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} must be divisible by num_heads={num_heads}")
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.d_model = int(d_model)
        self.num_heads = int(num_heads)
        self.d_head = d_model // num_heads
        self.q_proj = Dense(d_model, d_model, rng=rng, name=f"{name}.q")
        self.k_proj = Dense(d_model, d_model, rng=rng, name=f"{name}.k")
        self.v_proj = Dense(d_model, d_model, rng=rng, name=f"{name}.v")
        self.out_proj = Dense(d_model, d_model, rng=rng, name=f"{name}.out")
        self._cache: List[tuple] = []

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        b, t, _ = x.shape
        return x.reshape(b, t, self.num_heads, self.d_head).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        b, h, t, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * d)

    def forward(
        self,
        query: np.ndarray,
        key: np.ndarray,
        value: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``query``: (B, Tq, D); ``key``/``value``: (B, Tk, D); mask additive (Tq, Tk)."""
        q = self._split_heads(self.q_proj.forward(query))
        k = self._split_heads(self.k_proj.forward(key))
        v = self._split_heads(self.v_proj.forward(value))
        scale = 1.0 / np.sqrt(self.d_head)
        # batched BLAS matmuls over (B, h); scale and mask land in place on
        # the one score-sized array the contraction allocates
        scores = q @ k.swapaxes(-1, -2)
        scores *= scale
        if mask is not None:
            scores += mask
        attn = softmax(scores, axis=-1)
        context = attn @ v
        merged = self._merge_heads(context)
        out = self.out_proj.forward(merged)
        self._cache.append((q, k, v, attn, context, scale))
        return out

    def backward(self, grad_out: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns ``(d_query, d_key, d_value)``."""
        if not self._cache:
            raise RuntimeError("backward called more times than forward")
        q, k, v, attn, context, scale = self._cache.pop()
        d_merged = self.out_proj.backward(grad_out)
        b, tq, _ = d_merged.shape
        d_context = d_merged.reshape(b, tq, self.num_heads, self.d_head).transpose(0, 2, 1, 3)
        d_v = attn.swapaxes(-1, -2) @ d_context
        # softmax backward in place on d_attn: attn * (d_attn - rowsum(d_attn * attn)).
        # The row sum equals rowsum(d_context * context) (context = attn @ v),
        # which is head-sized, so no second score-sized array is needed.
        d_scores = d_context @ v.swapaxes(-1, -2)
        d_scores -= np.sum(d_context * context, axis=-1, keepdims=True)
        d_scores *= attn
        d_scores *= scale
        d_q = d_scores @ k
        d_k = d_scores.swapaxes(-1, -2) @ q
        d_query = self.q_proj.backward(self._merge_heads(d_q))
        d_key = self.k_proj.backward(self._merge_heads(d_k))
        d_value = self.v_proj.backward(self._merge_heads(d_v))
        return d_query, d_key, d_value

    def clear_cache(self) -> None:
        self._cache.clear()
        for proj in (self.q_proj, self.k_proj, self.v_proj, self.out_proj):
            proj.clear_cache()


class PositionwiseFeedForward(Module):
    """Two-layer feed-forward block applied at every position."""

    def __init__(
        self,
        d_model: int,
        d_ff: int,
        dropout: float = 0.0,
        rng: np.random.Generator | int | None = None,
        name: str = "ffn",
    ) -> None:
        super().__init__()
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.fc1 = Dense(d_model, d_ff, activation="relu", rng=rng, name=f"{name}.fc1")
        self.fc2 = Dense(d_ff, d_model, rng=rng, name=f"{name}.fc2")
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.fc2.forward(self.dropout.forward(self.fc1.forward(x)))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.fc1.backward(self.dropout.backward(self.fc2.backward(grad_out)))


class TransformerEncoderLayer(Module):
    """Post-norm Transformer encoder layer: self-attention + FFN with residuals."""

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        d_ff: int,
        dropout: float = 0.0,
        rng: np.random.Generator | int | None = None,
        name: str = "enc",
    ) -> None:
        super().__init__()
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.self_attn = MultiHeadAttention(d_model, num_heads, rng=rng, name=f"{name}.self")
        self.ffn = PositionwiseFeedForward(d_model, d_ff, dropout=dropout, rng=rng, name=f"{name}.ffn")
        self.norm1 = LayerNorm(d_model, name=f"{name}.norm1")
        self.norm2 = LayerNorm(d_model, name=f"{name}.norm2")

    def forward(self, x: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        attn_out = self.self_attn.forward(x, x, x, mask=mask)
        h = self.norm1.forward(x + attn_out)
        ffn_out = self.ffn.forward(h)
        return self.norm2.forward(h + ffn_out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        d_sum2 = self.norm2.backward(grad_out)
        d_h = d_sum2 + self.ffn.backward(d_sum2)
        d_sum1 = self.norm1.backward(d_h)
        dq, dk, dv = self.self_attn.backward(d_sum1)
        return d_sum1 + dq + dk + dv


class TransformerDecoderLayer(Module):
    """Decoder layer with causal self-attention and encoder-decoder attention."""

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        d_ff: int,
        dropout: float = 0.0,
        rng: np.random.Generator | int | None = None,
        name: str = "dec",
    ) -> None:
        super().__init__()
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.self_attn = MultiHeadAttention(d_model, num_heads, rng=rng, name=f"{name}.self")
        self.cross_attn = MultiHeadAttention(d_model, num_heads, rng=rng, name=f"{name}.cross")
        self.ffn = PositionwiseFeedForward(d_model, d_ff, dropout=dropout, rng=rng, name=f"{name}.ffn")
        self.norm1 = LayerNorm(d_model, name=f"{name}.norm1")
        self.norm2 = LayerNorm(d_model, name=f"{name}.norm2")
        self.norm3 = LayerNorm(d_model, name=f"{name}.norm3")

    def forward(
        self,
        x: np.ndarray,
        memory: np.ndarray,
        self_mask: Optional[np.ndarray] = None,
        memory_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        attn_out = self.self_attn.forward(x, x, x, mask=self_mask)
        h1 = self.norm1.forward(x + attn_out)
        cross_out = self.cross_attn.forward(h1, memory, memory, mask=memory_mask)
        h2 = self.norm2.forward(h1 + cross_out)
        ffn_out = self.ffn.forward(h2)
        return self.norm3.forward(h2 + ffn_out)

    def backward(self, grad_out: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Returns ``(d_x, d_memory)``."""
        d_sum3 = self.norm3.backward(grad_out)
        d_h2 = d_sum3 + self.ffn.backward(d_sum3)
        d_sum2 = self.norm2.backward(d_h2)
        dq, dk_mem, dv_mem = self.cross_attn.backward(d_sum2)
        d_h1 = d_sum2 + dq
        d_memory = dk_mem + dv_mem
        d_sum1 = self.norm1.backward(d_h1)
        dq1, dk1, dv1 = self.self_attn.backward(d_sum1)
        d_x = d_sum1 + dq1 + dk1 + dv1
        return d_x, d_memory
