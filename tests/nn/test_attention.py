"""Gradient checks and behaviour tests for attention / Transformer blocks."""

import numpy as np
import pytest

from repro.nn import (
    MultiHeadAttention,
    TransformerDecoderLayer,
    TransformerEncoderLayer,
    causal_mask,
    sinusoidal_positional_encoding,
)
from repro.nn.gradcheck import numerical_gradient, relative_error

TOL = 1e-4


def test_positional_encoding_shape_and_range():
    pe = sinusoidal_positional_encoding(50, 16)
    assert pe.shape == (50, 16)
    assert np.all(np.abs(pe) <= 1.0 + 1e-12)
    # distinct positions get distinct encodings
    assert not np.allclose(pe[0], pe[1])


def test_positional_encoding_odd_dimension():
    pe = sinusoidal_positional_encoding(10, 7)
    assert pe.shape == (10, 7)
    assert np.all(np.isfinite(pe))


def test_causal_mask_blocks_future_positions():
    mask = causal_mask(4)
    assert mask.shape == (4, 4)
    assert np.all(mask[np.triu_indices(4, k=1)] < -1e8)
    assert np.all(mask[np.tril_indices(4)] == 0.0)


def test_mha_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        MultiHeadAttention(d_model=10, num_heads=3)


def test_mha_output_shape_and_mask_effect():
    rng = np.random.default_rng(0)
    mha = MultiHeadAttention(8, 2, rng=rng)
    x = rng.normal(size=(2, 5, 8))
    out = mha.forward(x, x, x)
    assert out.shape == (2, 5, 8)
    mha.clear_cache()
    out_masked = mha.forward(x, x, x, mask=causal_mask(5))
    # first position can only attend to itself -> outputs differ from unmasked
    assert not np.allclose(out, out_masked)


def test_mha_causal_mask_makes_first_step_independent_of_future():
    rng = np.random.default_rng(1)
    mha = MultiHeadAttention(8, 2, rng=rng)
    x = rng.normal(size=(1, 4, 8))
    out1 = mha.forward(x, x, x, mask=causal_mask(4))
    mha.clear_cache()
    x2 = x.copy()
    x2[:, 2:, :] += 10.0  # perturb the future
    out2 = mha.forward(x2, x2, x2, mask=causal_mask(4))
    np.testing.assert_allclose(out1[:, 0, :], out2[:, 0, :], rtol=1e-10)
    assert not np.allclose(out1[:, 3, :], out2[:, 3, :])


def test_mha_input_gradients_match_numeric():
    rng = np.random.default_rng(2)
    mha = MultiHeadAttention(4, 2, rng=rng)
    q = rng.normal(size=(1, 3, 4))
    kv = rng.normal(size=(1, 4, 4))
    w = rng.normal(size=(1, 3, 4))

    out = mha.forward(q, kv, kv)
    dq, dk, dv = mha.backward(w)

    def loss_q():
        y = mha.forward(q, kv, kv)
        mha.clear_cache()
        return float(np.sum(w * y))

    num_q = numerical_gradient(loss_q, q)
    assert relative_error(dq, num_q) < TOL
    num_kv = numerical_gradient(loss_q, kv)
    assert relative_error(dk + dv, num_kv) < TOL


def test_mha_parameter_gradient_matches_numeric():
    rng = np.random.default_rng(3)
    mha = MultiHeadAttention(4, 2, rng=rng)
    x = rng.normal(size=(1, 3, 4))
    w = rng.normal(size=(1, 3, 4))
    mha.forward(x, x, x)
    mha.zero_grad()
    mha.clear_cache()
    mha.forward(x, x, x)
    mha.backward(w)
    param = mha.q_proj.weight
    analytic = param.grad.copy()

    def loss():
        y = mha.forward(x, x, x)
        mha.clear_cache()
        return float(np.sum(w * y))

    numeric = numerical_gradient(loss, param.data)
    assert relative_error(analytic, numeric) < TOL


def test_encoder_layer_shapes_and_gradient():
    rng = np.random.default_rng(4)
    enc = TransformerEncoderLayer(8, 2, 16, rng=rng)
    enc.eval()
    x = rng.normal(size=(2, 4, 8))
    w = rng.normal(size=(2, 4, 8))
    out = enc.forward(x)
    assert out.shape == x.shape
    analytic = enc.backward(w)

    def clear(module):
        for attr in vars(module).values():
            if hasattr(attr, "clear_cache"):
                attr.clear_cache()
            if hasattr(attr, "_cache") and isinstance(getattr(attr, "_cache"), list):
                attr._cache.clear()

    def loss():
        y = enc.forward(x)
        clear(enc)
        clear(enc.ffn)
        enc.self_attn.clear_cache()
        return float(np.sum(w * y))

    numeric = numerical_gradient(loss, x)
    assert relative_error(analytic, numeric) < 5e-4


def test_decoder_layer_returns_memory_gradient():
    rng = np.random.default_rng(5)
    dec = TransformerDecoderLayer(8, 2, 16, rng=rng)
    dec.eval()
    x = rng.normal(size=(2, 3, 8))
    mem = rng.normal(size=(2, 5, 8))
    out = dec.forward(x, mem, self_mask=causal_mask(3))
    assert out.shape == x.shape
    dx, dmem = dec.backward(rng.normal(size=out.shape))
    assert dx.shape == x.shape
    assert dmem.shape == mem.shape
    assert not np.allclose(dmem, 0.0)


def clear_caches(module):
    """Drop every forward cache in ``module`` and its sub-modules."""
    if hasattr(module, "clear_cache"):
        module.clear_cache()
    for _, child in module._children():
        clear_caches(child)


def test_mha_causal_mask_gradients_match_numeric():
    rng = np.random.default_rng(7)
    mha = MultiHeadAttention(8, 2, rng=rng)
    x = rng.normal(size=(2, 5, 8))
    w = rng.normal(size=(2, 5, 8))
    mask = causal_mask(5)
    mha.forward(x, x, x, mask=mask)
    dq, dk, dv = mha.backward(w)

    def loss():
        y = mha.forward(x, x, x, mask=mask)
        mha.clear_cache()
        return float(np.sum(w * y))

    assert relative_error(dq + dk + dv, numerical_gradient(loss, x)) < TOL
    for proj in (mha.q_proj, mha.k_proj, mha.v_proj, mha.out_proj):
        assert relative_error(proj.weight.grad, numerical_gradient(loss, proj.weight.data)) < TOL, proj.weight.name


def test_decoder_layer_gradients_match_numeric():
    rng = np.random.default_rng(8)
    dec = TransformerDecoderLayer(8, 2, 16, rng=rng)
    dec.eval()
    x = rng.normal(size=(2, 3, 8))
    mem = rng.normal(size=(2, 5, 8))
    w = rng.normal(size=(2, 3, 8))
    dec.forward(x, mem, self_mask=causal_mask(3))
    dx, dmem = dec.backward(w)

    def loss():
        y = dec.forward(x, mem, self_mask=causal_mask(3))
        clear_caches(dec)
        return float(np.sum(w * y))

    assert relative_error(dx, numerical_gradient(loss, x)) < 5e-4
    assert relative_error(dmem, numerical_gradient(loss, mem)) < 5e-4


def test_decoder_causal_mask_respects_order():
    rng = np.random.default_rng(6)
    dec = TransformerDecoderLayer(8, 2, 16, rng=rng)
    dec.eval()
    x = rng.normal(size=(1, 4, 8))
    mem = rng.normal(size=(1, 5, 8))
    out1 = dec.forward(x, mem, self_mask=causal_mask(4))
    x2 = x.copy()
    x2[:, -1, :] += 5.0
    out2 = dec.forward(x2, mem, self_mask=causal_mask(4))
    np.testing.assert_allclose(out1[:, 0, :], out2[:, 0, :], rtol=1e-10)
