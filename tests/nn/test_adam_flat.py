"""The flat-moment :class:`repro.nn.Adam` against the per-parameter loop in
``tests/reference/optim.py``: updates, checkpoint format and resume are
bit-identical."""

import numpy as np
import pytest

from repro.nn import MLP, Adam, Parameter, load_checkpoint, save_checkpoint

from reference.optim import ReferenceAdam


def _twin_models():
    return MLP(5, [7, 3], 2, rng=11), MLP(5, [7, 3], 2, rng=11)


def _set_random_grads(pairs, rng: np.random.Generator) -> None:
    """The same gradient on both sides; magnitudes spread over 1e-8 .. 1e3."""
    for a, b in pairs:
        grad = rng.normal(size=a.data.shape) * 10.0 ** rng.uniform(-8, 3, size=a.data.shape)
        a.grad[...] = grad
        b.grad[...] = grad


def _assert_params_identical(model_a, model_b) -> None:
    for a, b in zip(model_a.parameters(), model_b.parameters()):
        assert a.data.tobytes() == b.data.tobytes()


@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_flat_adam_equals_reference_bitwise_over_50_steps(weight_decay):
    model, ref_model = _twin_models()
    opt = Adam(model.parameters(), lr=3e-3, weight_decay=weight_decay)
    ref = ReferenceAdam(ref_model.parameters(), lr=3e-3, weight_decay=weight_decay)
    rng = np.random.default_rng(0)
    pairs = list(zip(model.parameters(), ref_model.parameters()))
    for step in range(50):
        if step == 20:  # a mid-run learning-rate decay takes effect on the next step
            opt.set_lr(1.5e-3)
            ref.set_lr(1.5e-3)
        _set_random_grads(pairs, rng)
        opt.step()
        ref.step()
        _assert_params_identical(model, ref_model)
    state, ref_state = opt.state_dict(), ref.state_dict()
    assert state["t"] == ref_state["t"] == 50
    for slot in ("m", "v"):
        for a, b in zip(state["slots"][slot], ref_state["slots"][slot]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("saved_by", ["reference", "flat"])
def test_state_saved_in_either_format_resumes_identically(tmp_path, saved_by):
    """A checkpoint written by one optimizer loads into the other, and both
    continue in lockstep with an uninterrupted reference run."""
    model, ref_model = _twin_models()
    rng = np.random.default_rng(1)
    pairs = list(zip(model.parameters(), ref_model.parameters()))
    first = (ReferenceAdam if saved_by == "reference" else Adam)(model.parameters(), lr=1e-2)
    ref = ReferenceAdam(ref_model.parameters(), lr=1e-2)
    for _ in range(7):
        _set_random_grads(pairs, rng)
        first.step()
        ref.step()
    path = str(tmp_path / "opt.npz")
    save_checkpoint(path, model=model, optimizer=first)

    resumed_model = MLP(5, [7, 3], 2, rng=99)
    resumed = (Adam if saved_by == "reference" else ReferenceAdam)(
        resumed_model.parameters(), lr=0.5
    )
    load_checkpoint(path, model=resumed_model, optimizer=resumed)
    assert resumed.lr == 1e-2
    _assert_params_identical(resumed_model, ref_model)
    pairs = list(zip(resumed_model.parameters(), ref_model.parameters()))
    for _ in range(10):
        _set_random_grads(pairs, rng)
        resumed.step()
        ref.step()
        _assert_params_identical(resumed_model, ref_model)


def test_restoring_weights_between_steps_updates_the_new_arrays():
    """``Module.load_state_dict`` rebinds every ``p.data``; the next step
    must update those new arrays, as the per-parameter loop does."""
    model, ref_model = _twin_models()
    opt = Adam(model.parameters(), lr=1e-2)
    ref = ReferenceAdam(ref_model.parameters(), lr=1e-2)
    rng = np.random.default_rng(2)
    pairs = list(zip(model.parameters(), ref_model.parameters()))
    best = model.state_dict()
    for _ in range(5):
        _set_random_grads(pairs, rng)
        opt.step()
        ref.step()
    old_arrays = [p.data for p in model.parameters()]
    old_bytes = [a.tobytes() for a in old_arrays]
    model.load_state_dict(best)
    ref_model.load_state_dict(best)
    for _ in range(3):
        _set_random_grads(pairs, rng)
        opt.step()
        ref.step()
    _assert_params_identical(model, ref_model)
    for (name, p), old, before in zip(model.named_parameters(), old_arrays, old_bytes):
        assert p.data is not old
        assert old.tobytes() == before  # the replaced arrays are left alone
        assert p.data.tobytes() != best[name].tobytes()  # stepped after the restore


def test_fresh_state_is_zero_moments_and_duplicates_are_refused():
    params = [Parameter(np.ones((2, 3))), Parameter(np.ones(4))]
    state = Adam(params, lr=1e-3).state_dict()
    assert state["t"] == 0
    for slot in ("m", "v"):
        assert [a.shape for a in state["slots"][slot]] == [(2, 3), (4,)]
        assert all(not a.any() for a in state["slots"][slot])
    with pytest.raises(ValueError, match="twice"):
        Adam([params[0], params[1], params[0]], lr=1e-3)


def test_optimizer_zero_grad_clears_every_parameter_it_updates():
    model = MLP(3, [4], 1, rng=0)
    opt = Adam(model.parameters(), lr=1e-3)
    for p in model.parameters():
        p.grad += 1.0
    opt.zero_grad()
    assert all(not p.grad.any() for p in model.parameters())
