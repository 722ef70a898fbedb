"""Gradient checks for the fused full-sequence training engine.

The fused ``forward_sequence`` / ``backward_sequence`` path and the fused
``MultiGaussianOutput`` head are verified three ways:

* against :mod:`repro.nn.gradcheck` central-difference gradients, on
  every parameter,
* against the stepwise reference (``forward``/``backward`` over the step
  API, ``tests/reference/training.py``) to 1e-10,
* end-to-end through ``RankSeqModel`` (LSTM and GRU backbones,
  ``target_dim`` 1 and 3, with per-instance weights).
"""

import numpy as np
import pytest

from reference.training import stepwise, stepwise_loss
from repro.models.deep.rankmodel import RankSeqModel
from repro.nn import MultiGaussianOutput, StackedGRU, StackedLSTM, gaussian_nll_seq
from repro.nn.gradcheck import numerical_gradient, relative_error

TOL = 1e-4
PARITY = 1e-10


def _grads(module):
    return {name: p.grad.copy() for name, p in module.named_parameters()}


def _assert_grad_parity(module, reference, atol=PARITY):
    for name, p in module.named_parameters():
        np.testing.assert_allclose(p.grad, reference[name], atol=atol, rtol=0,
                                   err_msg=name)


# ----------------------------------------------------------------------
# recurrent stacks: fused vs stepwise vs numerical
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [StackedLSTM, StackedGRU])
def test_forward_sequence_matches_stepwise(cls):
    rng = np.random.default_rng(0)
    net = cls(3, 5, num_layers=2, rng=1)
    x = rng.normal(size=(4, 7, 3))
    ref = stepwise(net)
    out_ref, states_ref = ref.forward(x)
    ref.clear_cache()
    out_fused, states_fused = net.forward_sequence(x)
    net.clear_cache()
    np.testing.assert_allclose(out_fused, out_ref, atol=PARITY, rtol=0)
    for fused, ref in zip(states_fused, states_ref):
        if isinstance(ref, tuple):
            for a, b in zip(fused, ref):
                np.testing.assert_allclose(a, b, atol=PARITY, rtol=0)
        else:
            np.testing.assert_allclose(fused, ref, atol=PARITY, rtol=0)


@pytest.mark.parametrize("cls", [StackedLSTM, StackedGRU])
def test_forward_sequence_nocache_matches_and_builds_no_cache(cls):
    rng = np.random.default_rng(1)
    net = cls(2, 4, num_layers=2, rng=2)
    x = rng.normal(size=(3, 5, 2))
    out_ref, _ = stepwise(net).forward(x)
    out_eval, _ = net.forward_sequence(x, with_cache=False)
    np.testing.assert_allclose(out_eval, out_ref, atol=PARITY, rtol=0)
    for cell in net.cells:
        assert not cell._seq_cache, "no-cache eval must not retain BPTT tensors"
    with pytest.raises(RuntimeError):
        net.backward_sequence(np.zeros_like(out_ref))


@pytest.mark.parametrize("cls", [StackedLSTM, StackedGRU])
def test_backward_sequence_matches_stepwise_gradients(cls):
    rng = np.random.default_rng(2)
    net = cls(3, 4, num_layers=2, rng=3)
    x = rng.normal(size=(2, 6, 3))
    w = rng.normal(size=(2, 6, 4))
    net.zero_grad()
    ref = stepwise(net)
    ref.forward(x)
    dx_ref = ref.backward(w)
    reference = _grads(net)
    net.zero_grad()
    net.forward_sequence(x)
    dx_fused, _ = net.backward_sequence(w)
    np.testing.assert_allclose(dx_fused, dx_ref, atol=PARITY, rtol=0)
    _assert_grad_parity(net, reference)


@pytest.mark.parametrize("cls", [StackedLSTM, StackedGRU])
def test_backward_sequence_matches_numerical_gradients(cls):
    rng = np.random.default_rng(3)
    net = cls(2, 3, num_layers=2, rng=4)
    x = rng.normal(size=(2, 4, 2))
    w = rng.normal(size=(2, 4, 3))

    def loss():
        out, _ = net.forward_sequence(x, with_cache=False)
        return float(np.sum(w * out))

    net.zero_grad()
    net.forward_sequence(x)
    dx, _ = net.backward_sequence(w)
    numeric_dx = numerical_gradient(loss, x)
    assert relative_error(dx, numeric_dx) < TOL
    # every parameter of both layers
    params = list(net.named_parameters())
    assert len(params) == 2 * (3 if cls is StackedLSTM else 6)
    for name, param in params:
        numeric = numerical_gradient(loss, param.data)
        assert relative_error(param.grad, numeric) < TOL, name


def test_gru_cell_backward_sequence_with_default_initial_state():
    """Regression: fused GRU BPTT must work when h0 is left to default."""
    from repro.nn import GRUCell

    rng = np.random.default_rng(5)
    cell = GRUCell(2, 3, rng=6)
    x = rng.normal(size=(2, 4, 2))
    w = rng.normal(size=(2, 4, 3))
    cell.zero_grad()
    ref = stepwise(cell)
    ref.forward(x)
    dx_ref = ref.backward(w)
    reference = _grads(cell)
    cell.zero_grad()
    cell.forward_sequence(x)  # no explicit h0
    dx_fused, _ = cell.backward_sequence(w)
    np.testing.assert_allclose(dx_fused, dx_ref, atol=PARITY, rtol=0)
    _assert_grad_parity(cell, reference)


def test_lstm_backward_sequence_with_final_state_gradient():
    rng = np.random.default_rng(4)
    net = StackedLSTM(2, 3, num_layers=1, rng=5)
    x = rng.normal(size=(2, 4, 2))
    w = rng.normal(size=(2, 4, 3))
    d_final = [(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))]

    def loss():
        out, states = net.forward_sequence(x, with_cache=False)
        h, c = states[0]
        return float(np.sum(w * out) + np.sum(d_final[0][0] * h) + np.sum(d_final[0][1] * c))

    net.zero_grad()
    net.forward_sequence(x)
    dx, _ = net.backward_sequence(w, d_final_states=d_final)
    numeric = numerical_gradient(loss, x)
    assert relative_error(dx, numeric) < TOL


def test_lstm_dropout_masks_match_stepwise_under_same_seed():
    x = np.random.default_rng(6).normal(size=(3, 5, 2))
    w = np.random.default_rng(7).normal(size=(3, 5, 8))
    step_net = StackedLSTM(2, 8, num_layers=2, dropout=0.4, rng=11)
    fused_net = StackedLSTM(2, 8, num_layers=2, dropout=0.4, rng=11)
    step_net.train(True)
    fused_net.train(True)
    # consume the mask stream identically: stepwise loop vs one fused draw
    step_net.zero_grad()
    ref = stepwise(step_net)
    out_ref, _ = ref.forward(x)
    dx_ref = ref.backward(w)
    fused_net.zero_grad()
    out_fused, _ = fused_net.forward_sequence(x)
    dx_fused, _ = fused_net.backward_sequence(w)
    np.testing.assert_allclose(out_fused, out_ref, atol=PARITY, rtol=0)
    np.testing.assert_allclose(dx_fused, dx_ref, atol=PARITY, rtol=0)
    reference = _grads(step_net)
    for name, p in fused_net.named_parameters():
        np.testing.assert_allclose(p.grad, reference[name], atol=PARITY, rtol=0)


# ----------------------------------------------------------------------
# fused Gaussian head
# ----------------------------------------------------------------------
@pytest.mark.parametrize("target_dim", [1, 3])
def test_multi_gaussian_output_gradcheck(target_dim):
    rng = np.random.default_rng(8)
    head = MultiGaussianOutput(5, target_dim, rng=9)
    h = rng.normal(size=(4, 2, 5))
    z = rng.normal(size=(4, 2, target_dim))
    weights = rng.uniform(0.5, 2.0, size=4)

    def loss():
        mu, sigma = head.forward(h, with_cache=False)
        return gaussian_nll_seq(z, mu, sigma, weights=weights)[0]

    head.zero_grad()
    mu, sigma = head.forward(h)
    _, d_mu, d_sigma = gaussian_nll_seq(z, mu, sigma, weights=weights)
    dh = head.backward(d_mu, d_sigma)
    for param in (head.weight, head.bias):
        numeric = numerical_gradient(loss, param.data)
        assert relative_error(param.grad, numeric) < TOL, param.name
    numeric_dh = numerical_gradient(loss, h)
    assert relative_error(dh, numeric_dh) < TOL


def test_multi_gaussian_output_matches_separate_heads():
    """Same shared-rng draw order => identical parameters and outputs."""
    from repro.nn import GaussianOutput

    shared = np.random.default_rng(10)
    heads = [GaussianOutput(6, rng=shared) for _ in range(3)]
    fused = MultiGaussianOutput(6, 3, rng=np.random.default_rng(10))
    for d, head in enumerate(heads):
        np.testing.assert_array_equal(fused.weight.data[:, d : d + 1],
                                      head.mu_head.weight.data)
        np.testing.assert_array_equal(fused.weight.data[:, 3 + d : 4 + d],
                                      head.sigma_head.weight.data)
    h = np.random.default_rng(11).normal(size=(7, 6))
    mu, sigma = fused.forward(h, with_cache=False)
    for d, head in enumerate(heads):
        params = head.forward(h)
        head.clear_cache()
        np.testing.assert_allclose(mu[:, d], params.mu, atol=1e-12)
        np.testing.assert_allclose(sigma[:, d], params.sigma, atol=1e-12)


def test_multi_gaussian_output_rejects_bad_input():
    head = MultiGaussianOutput(4, 2, rng=0)
    with pytest.raises(ValueError):
        head.forward(np.zeros((3, 5)))
    with pytest.raises(ValueError):
        MultiGaussianOutput(4, 0)
    with pytest.raises(RuntimeError):
        head.backward(np.zeros((3, 2)), np.zeros((3, 2)))


# ----------------------------------------------------------------------
# end-to-end: RankSeqModel fused training vs stepwise reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backbone", ["lstm", "gru"])
@pytest.mark.parametrize("target_dim", [1, 3])
def test_rankseq_fused_loss_and_grads_match_stepwise(backbone, target_dim):
    rng = np.random.default_rng(12)
    batch = {
        "target": rng.uniform(1, 10, size=(4, 9, target_dim)),
        "covariates": rng.normal(size=(4, 9, 2)),
        "weight": np.array([1.0, 9.0, 1.0, 3.0]),
    }
    model = RankSeqModel(num_covariates=2, hidden_dim=5, num_layers=2,
                         target_dim=target_dim, encoder_length=7,
                         decoder_length=2, rng=13, backbone=backbone)
    model.eval()
    model.zero_grad()
    fused_loss = model.loss_and_backward(batch)
    fused_grads = _grads(model)
    model.zero_grad()
    reference_loss = stepwise_loss(model, batch, with_backward=True)
    assert fused_loss == pytest.approx(reference_loss, abs=PARITY)
    for name, p in model.named_parameters():
        np.testing.assert_allclose(fused_grads[name], p.grad, atol=PARITY,
                                   rtol=0, err_msg=name)
    # validation runs the cache-free path and agrees with both
    val = model.validation_loss(batch)
    assert val == pytest.approx(fused_loss, abs=PARITY)
    for cell in model.lstm.cells:
        assert not cell._seq_cache


def test_rankseq_fused_parameter_gradients_match_numeric():
    rng = np.random.default_rng(14)
    batch = {
        "target": rng.uniform(1, 10, size=(3, 8)),
        "covariates": rng.normal(size=(3, 8, 2)),
        "weight": np.array([1.0, 9.0, 1.0]),
    }
    model = RankSeqModel(num_covariates=2, hidden_dim=4, num_layers=2,
                         encoder_length=6, decoder_length=2, rng=15)
    model.eval()
    model.zero_grad()
    model.loss_and_backward(batch)
    for param in [model.lstm.cells[0].w_x, model.lstm.cells[1].w_h,
                  model.head.weight, model.head.bias]:
        analytic = param.grad.copy()
        numeric = numerical_gradient(lambda: model.validation_loss(batch), param.data)
        assert relative_error(analytic, numeric) < TOL, param.name
