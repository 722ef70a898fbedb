"""Tests for the GRU backbone and the Student-t likelihood head.

The GRU step-API tests run on the stepwise training reference
(``tests/reference/training.py``), which shares the shipped modules'
parameters.
"""

import numpy as np
import pytest

from reference.training import stepwise
from repro.nn import GRUCell, StackedGRU, StudentTOutput, student_t_nll
from repro.nn.gradcheck import numerical_gradient, relative_error

TOL = 1e-4


# ----------------------------------------------------------------------
# GRU
# ----------------------------------------------------------------------
def test_gru_cell_step_shapes():
    cell = stepwise(GRUCell(3, 5, rng=0))
    x = np.random.default_rng(0).normal(size=(4, 3))
    h = cell.step(x, cell.zero_state(4))
    assert h.shape == (4, 5)
    assert not np.allclose(h, 0.0)


def test_gru_cell_sequence_input_gradient():
    rng = np.random.default_rng(1)
    cell = stepwise(GRUCell(3, 4, rng=rng))
    x = rng.normal(size=(2, 5, 3))
    w = rng.normal(size=(2, 5, 4))
    out, _ = cell.forward(x)
    analytic = cell.backward(w)

    def loss():
        y, _ = cell.forward(x)
        cell.clear_cache()
        return float(np.sum(w * y))

    numeric = numerical_gradient(loss, x)
    assert relative_error(analytic, numeric) < TOL


@pytest.mark.parametrize("param_name", ["w_x_gates", "w_h_gates", "w_x_cand", "w_h_cand", "b_cand"])
def test_gru_cell_parameter_gradients(param_name):
    rng = np.random.default_rng(2)
    cell = stepwise(GRUCell(2, 3, rng=rng))
    x = rng.normal(size=(2, 4, 2))
    w = rng.normal(size=(2, 4, 3))
    cell.forward(x)
    cell.cell.zero_grad()
    cell.clear_cache()
    cell.forward(x)
    cell.backward(w)
    param = getattr(cell, param_name)
    analytic = param.grad.copy()

    def loss():
        y, _ = cell.forward(x)
        cell.clear_cache()
        return float(np.sum(w * y))

    numeric = numerical_gradient(loss, param.data)
    assert relative_error(analytic, numeric) < TOL


def test_stacked_gru_forward_backward_shapes():
    rng = np.random.default_rng(3)
    net = stepwise(StackedGRU(input_dim=4, hidden_dim=6, num_layers=2, rng=rng))
    x = rng.normal(size=(3, 7, 4))
    out, states = net.forward(x)
    assert out.shape == (3, 7, 6)
    assert len(states) == 2
    dx = net.backward(np.ones_like(out))
    assert dx.shape == x.shape


def test_stacked_gru_input_gradient():
    rng = np.random.default_rng(4)
    net = stepwise(StackedGRU(input_dim=3, hidden_dim=4, num_layers=2, rng=rng))
    x = rng.normal(size=(2, 4, 3))
    w = rng.normal(size=(2, 4, 4))
    out, _ = net.forward(x)
    analytic = net.backward(w)

    def loss():
        y, _ = net.forward(x)
        net.clear_cache()
        return float(np.sum(w * y))

    numeric = numerical_gradient(loss, x)
    assert relative_error(analytic, numeric) < TOL


def test_stacked_gru_step_matches_forward():
    rng = np.random.default_rng(5)
    net = stepwise(StackedGRU(input_dim=3, hidden_dim=4, num_layers=2, rng=rng))
    x = rng.normal(size=(2, 5, 3))
    full, _ = net.forward(x)
    net.clear_cache()
    states = net.zero_state(2)
    outs = []
    for t in range(5):
        h, states = net.step(x[:, t, :], states)
        outs.append(h)
    np.testing.assert_allclose(np.stack(outs, axis=1), full, rtol=1e-12)


def test_stacked_gru_validation():
    with pytest.raises(ValueError):
        StackedGRU(2, 3, num_layers=0)
    net = stepwise(StackedGRU(2, 3, num_layers=2, rng=0))
    with pytest.raises(ValueError):
        net.step(np.zeros((1, 2)), [net.cells[0].zero_state(1)])
    with pytest.raises(RuntimeError):
        net.cells[0].step_backward(np.zeros((1, 3)))


def test_gru_has_fewer_parameters_than_lstm():
    from repro.nn import StackedLSTM

    gru = StackedGRU(input_dim=10, hidden_dim=40, num_layers=2, rng=0)
    lstm = StackedLSTM(input_dim=10, hidden_dim=40, num_layers=2, rng=0)
    assert gru.num_parameters() < lstm.num_parameters()


# ----------------------------------------------------------------------
# Student-t output
# ----------------------------------------------------------------------
def test_student_t_output_parameter_ranges():
    rng = np.random.default_rng(6)
    head = StudentTOutput(8, rng=rng)
    params = head.forward(rng.normal(size=(50, 8)) * 5)
    assert np.all(params.sigma > 0)
    assert np.all(params.nu > 2.0)
    assert params.mu.shape == (50,)


def test_student_t_nll_gradients_match_numeric():
    rng = np.random.default_rng(7)
    z = rng.normal(size=6)
    mu = rng.normal(size=6)
    sigma = np.abs(rng.normal(size=6)) + 0.5
    nu = np.abs(rng.normal(size=6)) + 3.0
    _, d_mu, d_sigma, d_nu = student_t_nll(z, mu, sigma, nu)
    for arr, grad in ((mu, d_mu), (sigma, d_sigma), (nu, d_nu)):
        numeric = numerical_gradient(lambda: student_t_nll(z, mu, sigma, nu)[0], arr)
        assert relative_error(grad, numeric) < 1e-4


def test_student_t_approaches_gaussian_for_large_nu():
    from repro.nn.losses import gaussian_nll

    z = np.array([0.3, -1.2, 2.0])
    mu = np.zeros(3)
    sigma = np.ones(3)
    t_loss, *_ = student_t_nll(z, mu, sigma, np.full(3, 1e6))
    g_loss, *_ = gaussian_nll(z, mu, sigma)
    assert t_loss == pytest.approx(g_loss, rel=1e-3)


def test_student_t_sampling_and_quantiles():
    rng = np.random.default_rng(8)
    head = StudentTOutput(4, rng=rng)
    params = head.forward(rng.normal(size=(3, 4)))
    samples = params.sample(rng, n_samples=5000)
    assert samples.shape == (5000, 3)
    np.testing.assert_allclose(np.median(samples, axis=0), params.mu, atol=0.2)
    np.testing.assert_allclose(params.quantile(0.5), params.mu, atol=1e-9)
    assert np.all(params.quantile(0.9) > params.quantile(0.1))


def test_student_t_backward_through_nll():
    rng = np.random.default_rng(9)
    head = StudentTOutput(5, rng=rng)
    h = rng.normal(size=(4, 5))
    z = rng.normal(size=4)
    params = head.forward(h)
    loss, d_mu, d_sigma, d_nu = student_t_nll(z, params.mu, params.sigma, params.nu)
    dh = head.backward(d_mu, d_sigma, d_nu)
    assert dh.shape == h.shape

    def loss_fn():
        p = head.forward(h)
        head.clear_cache()
        return student_t_nll(z, p.mu, p.sigma, p.nu)[0]

    numeric = numerical_gradient(loss_fn, h)
    assert relative_error(dh, numeric) < 1e-4
