"""State save/restore round-trips on the recurrent stacks.

A state exported mid-sequence and imported into a fresh replay must carry
the recurrence forward exactly: continuing from the restored state has to
match an uninterrupted from-scratch run to 1e-10 (the serving engine
relies on this to carry warm-up states between forecast origins).
"""

import numpy as np
import pytest

from reference.training import stepwise
from repro.nn import StackedGRU, StackedLSTM, stable_matmul
from repro.nn.inference import StackInference, slice_states, tile_states


def run_steps(stepper, x, states):
    outputs = []
    for t in range(x.shape[1]):
        h, states = stepper.step(x[:, t, :], states)
        outputs.append(h)
    return np.stack(outputs, axis=1), states


@pytest.mark.parametrize("stack_cls", [StackedGRU, StackedLSTM])
def test_saverestore_roundtrip_matches_from_scratch_replay(stack_cls):
    stack = stack_cls(input_dim=3, hidden_dim=5, num_layers=2, rng=0)
    stepper = StackInference(stack)
    x = np.random.default_rng(1).normal(size=(4, 12, 3))

    full, full_final = run_steps(stepper, x, stepper.zero_state(4))

    first, mid_states = run_steps(stepper, x[:, :5, :], stepper.zero_state(4))
    restored = stack.import_state(stack.export_state(mid_states))
    second, final_states = run_steps(stepper, x[:, 5:, :], restored)

    np.testing.assert_allclose(np.concatenate([first, second], axis=1), full, atol=1e-10)
    np.testing.assert_allclose(
        stack.export_state(final_states), stack.export_state(full_final), atol=1e-10
    )


def test_gru_saverestore_through_training_step_api():
    """The cached training ``step`` path (the stepwise reference) honours
    restored states too."""
    stack = StackedGRU(input_dim=2, hidden_dim=4, num_layers=2, rng=3)
    ref = stepwise(stack)
    x = np.random.default_rng(4).normal(size=(3, 8, 2))

    states = stack.zero_state(3)
    for t in range(8):
        h_full, states = ref.step(x[:, t, :], states)
    ref.clear_cache()

    states = stack.zero_state(3)
    for t in range(4):
        _, states = ref.step(x[:, t, :], states)
    ref.clear_cache()
    states = stack.import_state(stack.export_state(states))
    for t in range(4, 8):
        h_split, states = ref.step(x[:, t, :], states)
    ref.clear_cache()
    np.testing.assert_allclose(h_split, h_full, atol=1e-10)


@pytest.mark.parametrize("stack_cls", [StackedGRU, StackedLSTM])
def test_export_import_validation(stack_cls):
    stack = stack_cls(input_dim=3, hidden_dim=5, num_layers=2, rng=0)
    states = stack.zero_state(4)
    packed = stack.export_state(states)
    expected = (2, 2, 4, 5) if stack_cls is StackedLSTM else (2, 4, 5)
    assert packed.shape == expected
    with pytest.raises(ValueError):
        stack.export_state(states[:1])
    with pytest.raises(ValueError):
        stack.import_state(packed[..., :3])  # wrong hidden dim
    with pytest.raises(ValueError):
        stack.import_state(packed[:1])  # wrong layer count
    restored = stack.import_state(packed)
    restored[0] = None  # mutating the copy must not corrupt the original
    assert states[0] is not None


@pytest.mark.parametrize("stack_cls", [StackedGRU, StackedLSTM])
def test_tile_slice_states(stack_cls):
    stack = stack_cls(input_dim=3, hidden_dim=5, num_layers=2, rng=0)
    stepper = StackInference(stack)
    x = np.random.default_rng(2).normal(size=(3, 4, 3))
    _, states = run_steps(stepper, x, stepper.zero_state(3))

    tiled = tile_states(states, 2)  # every row twice
    packed = stack.export_state(tiled)
    assert packed.shape[-2] == 6
    np.testing.assert_array_equal(
        stack.export_state(slice_states(tiled, np.array([0, 2, 4]))),
        stack.export_state(states),
    )


# ----------------------------------------------------------------------
# the batch-size-invariant matmul underneath it all
# ----------------------------------------------------------------------
def test_stable_matmul_matches_blas_numerically():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(700, 24))
    w = rng.normal(size=(24, 40))
    np.testing.assert_allclose(stable_matmul(x, w), x @ w, rtol=1e-12, atol=1e-12)


def test_stable_matmul_rows_invariant_to_batch_size():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(30, 16))
    row = rng.normal(size=(1, 30))
    reference = stable_matmul(row, w)[0]
    for batch in (1, 3, 64, 256, 1000):
        batch_x = rng.normal(size=(batch, 30))
        batch_x[batch // 2] = row[0]
        result = stable_matmul(batch_x, w)[batch // 2]
        np.testing.assert_array_equal(result, reference)


def test_inference_kernels_match_training_forward():
    """The cache-free serving kernel agrees numerically with the stepwise
    training reference."""
    stack = StackedLSTM(input_dim=3, hidden_dim=8, num_layers=2, rng=0)
    x = np.random.default_rng(2).normal(size=(5, 3))
    h_train, _ = stepwise(stack).step(x, stack.zero_state(5))
    h_infer, _ = StackInference(stack).step(x, stack.zero_state(5))
    np.testing.assert_allclose(h_infer, h_train, atol=1e-12)
