"""Tests for activation functions and their derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import activations as act
from repro.nn import causal_mask

from reference.attention import reference_softmax


def test_sigmoid_matches_closed_form_and_is_stable():
    x = np.array([-1000.0, -5.0, 0.0, 5.0, 1000.0])
    y = act.sigmoid(x)
    assert np.all(np.isfinite(y))
    assert y[0] == pytest.approx(0.0, abs=1e-12)
    assert y[2] == pytest.approx(0.5)
    assert y[-1] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(act.sigmoid(np.array([1.0])), 1 / (1 + np.exp(-1)), rtol=1e-12)


def test_softplus_stable_for_large_inputs():
    x = np.array([-800.0, 0.0, 800.0])
    y = act.softplus(x)
    assert np.all(np.isfinite(y))
    assert y[1] == pytest.approx(np.log(2.0))
    assert y[2] == pytest.approx(800.0)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 7)) * 10
    p = act.softmax(x, axis=-1)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(act.softmax(x + 100.0, axis=-1), p, rtol=1e-9)


@pytest.mark.parametrize("axis", [-1, 0, 2])
def test_softmax_is_bitwise_the_three_temporary_formula_and_keeps_its_input(axis):
    rng = np.random.default_rng(3)
    # attention-shaped scores with causal -1e9 mask entries; the first query
    # row of every head sees a single key, the last row sees all of them
    scores = rng.normal(size=(4, 8, 29, 29)) * 5 + causal_mask(29)
    scores[0, 0, 5] = -1e9  # a fully masked row
    before = scores.copy()
    p = act.softmax(scores, axis=axis)
    np.testing.assert_array_equal(p, reference_softmax(before, axis=axis))
    np.testing.assert_array_equal(scores, before)
    assert not np.shares_memory(p, scores)


def test_log_softmax_consistent_with_softmax():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 5))
    np.testing.assert_allclose(np.exp(act.log_softmax(x)), act.softmax(x), rtol=1e-12)


@pytest.mark.parametrize("name", ["sigmoid", "tanh", "relu", "leaky_relu", "softplus", "identity"])
def test_activation_gradients_match_finite_differences(name):
    a = act.get_activation(name)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50,))
    # keep away from the ReLU kink where the derivative is not defined
    x[np.abs(x) < 1e-3] = 0.5
    y = a(x)
    analytic = a.grad(x, y)
    eps = 1e-6
    numeric = (a.fn(x + eps) - a.fn(x - eps)) / (2 * eps)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


def test_get_activation_unknown_name_raises():
    with pytest.raises(ValueError):
        act.get_activation("swishish")


def test_get_activation_none_is_identity():
    a = act.get_activation(None)
    x = np.array([1.0, -2.0])
    np.testing.assert_array_equal(a(x), x)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-50, max_value=50))
def test_sigmoid_tanh_relationship(x):
    # tanh(x) = 2*sigmoid(2x) - 1
    lhs = act.tanh(np.array([x]))[0]
    rhs = 2.0 * act.sigmoid(np.array([2.0 * x]))[0] - 1.0
    assert lhs == pytest.approx(rhs, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=8))
def test_softmax_is_monotone_in_inputs(values):
    x = np.array(values)
    p = act.softmax(x)
    order_x = np.argsort(x)
    order_p = np.argsort(p)
    np.testing.assert_array_equal(np.sort(x[order_x]), x[order_x])
    # softmax preserves ordering
    assert np.all(np.diff(p[order_x]) >= -1e-12)
    assert p.min() >= 0.0 and p.max() <= 1.0
