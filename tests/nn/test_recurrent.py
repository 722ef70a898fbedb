"""Gradient checks and behaviour tests for the LSTM layers.

The step-API tests run on the stepwise training reference
(``tests/reference/training.py``), which shares the shipped modules'
parameters; the fused path is checked against it in
``test_fused_sequence.py``.
"""

import numpy as np
import pytest

from reference.training import stepwise
from repro.nn import LSTMCell, StackedLSTM
from repro.nn.gradcheck import numerical_gradient, relative_error

TOL = 1e-4


def _cell_loss(cell, x, weights):
    out, _ = cell.forward(x)
    cell.clear_cache()
    return float(np.sum(weights * out))


def test_lstm_cell_step_shapes_and_state_update():
    cell = stepwise(LSTMCell(3, 5, rng=0))
    x = np.random.default_rng(0).normal(size=(4, 3))
    h, (h2, c) = cell.step(x, cell.zero_state(4))
    assert h.shape == (4, 5)
    assert np.shares_memory(h, h2) or np.array_equal(h, h2)
    assert c.shape == (4, 5)
    assert not np.allclose(h, 0.0)


def test_lstm_cell_sequence_input_gradient():
    rng = np.random.default_rng(1)
    cell = stepwise(LSTMCell(3, 4, rng=rng))
    x = rng.normal(size=(2, 5, 3))
    w = rng.normal(size=(2, 5, 4))
    out, _ = cell.forward(x)
    analytic = cell.backward(w)
    numeric = numerical_gradient(lambda: _cell_loss(cell, x, w), x)
    assert relative_error(analytic, numeric) < TOL


@pytest.mark.parametrize("param_name", ["w_x", "w_h", "bias"])
def test_lstm_cell_parameter_gradients(param_name):
    rng = np.random.default_rng(2)
    cell = stepwise(LSTMCell(2, 3, rng=rng))
    x = rng.normal(size=(2, 4, 2))
    w = rng.normal(size=(2, 4, 3))
    cell.forward(x)
    cell.cell.zero_grad()
    cell.clear_cache()
    cell.forward(x)
    cell.backward(w)
    param = getattr(cell, param_name)
    analytic = param.grad.copy()
    numeric = numerical_gradient(lambda: _cell_loss(cell, x, w), param.data)
    assert relative_error(analytic, numeric) < TOL


def test_lstm_forget_gate_bias_initialised_to_one():
    cell = LSTMCell(2, 4, forget_bias=1.0, rng=0)
    np.testing.assert_allclose(cell.bias.data[4:8], 1.0)
    np.testing.assert_allclose(cell.bias.data[:4], 0.0)


def test_lstm_cell_step_backward_without_step_raises():
    cell = stepwise(LSTMCell(2, 2, rng=0))
    with pytest.raises(RuntimeError):
        cell.step_backward(np.zeros((1, 2)))


def test_stacked_lstm_forward_shapes():
    rng = np.random.default_rng(3)
    net = stepwise(StackedLSTM(input_dim=4, hidden_dim=6, num_layers=3, rng=rng))
    x = rng.normal(size=(5, 7, 4))
    out, states = net.forward(x)
    assert out.shape == (5, 7, 6)
    assert len(states) == 3
    for h, c in states:
        assert h.shape == (5, 6) and c.shape == (5, 6)


def test_stacked_lstm_input_gradient():
    rng = np.random.default_rng(4)
    net = stepwise(StackedLSTM(input_dim=3, hidden_dim=4, num_layers=2, rng=rng))
    x = rng.normal(size=(2, 4, 3))
    w = rng.normal(size=(2, 4, 4))
    out, _ = net.forward(x)
    analytic = net.backward(w)

    def loss():
        out, _ = net.forward(x)
        net.clear_cache()
        return float(np.sum(w * out))

    numeric = numerical_gradient(loss, x)
    assert relative_error(analytic, numeric) < TOL


def test_stacked_lstm_parameter_gradient_second_layer():
    rng = np.random.default_rng(5)
    net = stepwise(StackedLSTM(input_dim=2, hidden_dim=3, num_layers=2, rng=rng))
    x = rng.normal(size=(2, 3, 2))
    w = rng.normal(size=(2, 3, 3))
    net.forward(x)
    net.stack.zero_grad()
    net.clear_cache()
    net.forward(x)
    net.backward(w)
    param = net.cells[1].w_h
    analytic = param.grad.copy()

    def loss():
        out, _ = net.forward(x)
        net.clear_cache()
        return float(np.sum(w * out))

    numeric = numerical_gradient(loss, param.data)
    assert relative_error(analytic, numeric) < TOL


def test_stacked_lstm_step_api_matches_forward():
    rng = np.random.default_rng(6)
    net = stepwise(StackedLSTM(input_dim=3, hidden_dim=4, num_layers=2, rng=rng))
    x = rng.normal(size=(2, 5, 3))
    out_full, states_full = net.forward(x)
    net.clear_cache()
    states = net.zero_state(2)
    outs = []
    for t in range(5):
        h, states = net.step(x[:, t, :], states)
        outs.append(h)
    np.testing.assert_allclose(np.stack(outs, axis=1), out_full, rtol=1e-12)
    for (h1, c1), (h2, c2) in zip(states, states_full):
        np.testing.assert_allclose(h1, h2)
        np.testing.assert_allclose(c1, c2)


def test_stacked_lstm_state_carries_information_across_calls():
    """Feeding a sequence in two halves with carried state equals one pass."""
    rng = np.random.default_rng(7)
    net = stepwise(StackedLSTM(input_dim=2, hidden_dim=3, num_layers=2, rng=rng))
    x = rng.normal(size=(1, 6, 2))
    full, _ = net.forward(x)
    net.clear_cache()
    first, states = net.forward(x[:, :3, :])
    second, _ = net.forward(x[:, 3:, :], states)
    np.testing.assert_allclose(np.concatenate([first, second], axis=1), full, rtol=1e-12)


def test_stacked_lstm_invalid_num_layers():
    with pytest.raises(ValueError):
        StackedLSTM(2, 3, num_layers=0)


def test_stacked_lstm_wrong_state_count_raises():
    net = stepwise(StackedLSTM(2, 3, num_layers=2, rng=0))
    with pytest.raises(ValueError):
        net.step(np.zeros((1, 2)), [net.cells[0].zero_state(1)])


def test_stacked_lstm_dropout_only_between_layers_in_training():
    rng = np.random.default_rng(8)
    stack = StackedLSTM(input_dim=2, hidden_dim=16, num_layers=2, dropout=0.5, rng=rng)
    net = stepwise(stack)
    x = rng.normal(size=(4, 3, 2))
    stack.train(True)
    out_train, _ = net.forward(x)
    net.clear_cache()
    stack.eval()
    out_eval1, _ = net.forward(x)
    net.clear_cache()
    out_eval2, _ = net.forward(x)
    # eval is deterministic, train differs from eval due to dropout
    np.testing.assert_allclose(out_eval1, out_eval2)
    assert not np.allclose(out_train, out_eval1)
