"""Parity of the batched-matmul attention core with the einsum reference.

The Transformer baseline has no float64 byte-identity gate: its attention
runs on batched ``np.matmul``, whose BLAS summation order differs from the
einsum loop it replaced.  The contract is error-bounded instead — the
output, the input gradients and every projection gradient stay within
``PARITY_TOL`` of :class:`reference.attention.EinsumMultiHeadAttention`,
measured as ``max|got - ref| / max|ref|``.
"""

import numpy as np
import pytest

from repro.nn import MultiHeadAttention, causal_mask

from reference.attention import EinsumMultiHeadAttention

PARITY_TOL = 1e-12

# (batch, query length, key length, d_model, heads, causal self-attention)
CASES = {
    "encoder-self": (64, 29, 29, 32, 8, False),
    "decoder-causal-self": (64, 29, 29, 32, 8, True),
    "cross-tq2-tk29": (64, 2, 29, 32, 8, False),
    "batch-1": (1, 29, 29, 32, 8, False),
    "one-head": (64, 29, 29, 32, 1, False),
}
PROJECTIONS = ("q_proj", "k_proj", "v_proj", "out_proj")


def scaled_error(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def run_attention(cls, batch, tq, tk, d_model, heads, causal):
    """Forward + backward of one freshly seeded module; returns named arrays."""
    mha = cls(d_model, heads, rng=7)
    rng = np.random.default_rng(11)
    query = rng.normal(size=(batch, tq, d_model))
    memory = query if tq == tk else rng.normal(size=(batch, tk, d_model))
    grad_out = rng.normal(size=(batch, tq, d_model))
    mask = causal_mask(tq) if causal else None
    arrays = {"out": mha.forward(query, memory, memory, mask=mask)}
    arrays["d_query"], arrays["d_key"], arrays["d_value"] = mha.backward(grad_out)
    for name in PROJECTIONS:
        proj = getattr(mha, name)
        # the key bias gradient is analytically zero (softmax ignores a
        # per-row shift), so it is measured at the scale of its projection
        arrays[f"{name}.grad"] = np.concatenate([proj.weight.grad.ravel(), proj.bias.grad])
    return arrays


@pytest.mark.parametrize("case", sorted(CASES))
def test_matmul_core_matches_einsum_reference(case):
    got = run_attention(MultiHeadAttention, *CASES[case])
    ref = run_attention(EinsumMultiHeadAttention, *CASES[case])
    assert got.keys() == ref.keys()
    for name in ref:
        assert got[name].shape == ref[name].shape, name
        assert scaled_error(got[name], ref[name]) <= PARITY_TOL, name
