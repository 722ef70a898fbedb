"""Reference multi-head attention: the original ``np.einsum`` core.

:class:`EinsumMultiHeadAttention` keeps the six einsum contractions and the
three-temporary softmax that :class:`repro.nn.MultiHeadAttention` ran before
its core moved to batched ``np.matmul``.  It shares the shipped module's
projections, head split/merge and cache protocol, so the same seed builds
identical weights in both and the parity tests compare outputs and every
gradient directly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import MultiHeadAttention


def reference_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax as three score-sized temporaries: shift, exp, divide."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


class EinsumMultiHeadAttention(MultiHeadAttention):
    """:class:`MultiHeadAttention` with the einsum forward and backward."""

    def forward(
        self,
        query: np.ndarray,
        key: np.ndarray,
        value: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        q = self._split_heads(self.q_proj.forward(query))
        k = self._split_heads(self.k_proj.forward(key))
        v = self._split_heads(self.v_proj.forward(value))
        scale = 1.0 / np.sqrt(self.d_head)
        scores = np.einsum("bhqd,bhkd->bhqk", q, k) * scale
        if mask is not None:
            scores = scores + mask[None, None, :, :]
        attn = reference_softmax(scores, axis=-1)
        context = np.einsum("bhqk,bhkd->bhqd", attn, v)
        merged = self._merge_heads(context)
        out = self.out_proj.forward(merged)
        self._cache.append((q, k, v, attn, scale))
        return out

    def backward(self, grad_out: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        q, k, v, attn, scale = self._cache.pop()
        d_merged = self.out_proj.backward(grad_out)
        b, tq, _ = d_merged.shape
        d_context = d_merged.reshape(b, tq, self.num_heads, self.d_head).transpose(0, 2, 1, 3)
        d_attn = np.einsum("bhqd,bhkd->bhqk", d_context, v)
        d_v = np.einsum("bhqk,bhqd->bhkd", attn, d_context)
        d_scores = attn * (d_attn - np.sum(d_attn * attn, axis=-1, keepdims=True))
        d_scores = d_scores * scale
        d_q = np.einsum("bhqk,bhkd->bhqd", d_scores, k)
        d_k = np.einsum("bhqk,bhqd->bhkd", d_scores, q)
        d_query = self.q_proj.backward(self._merge_heads(d_q))
        d_key = self.k_proj.backward(self._merge_heads(d_k))
        d_value = self.v_proj.backward(self._merge_heads(d_v))
        return d_query, d_key, d_value
