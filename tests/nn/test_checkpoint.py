"""Tests for the npz+meta checkpoint layer and bit-exact Trainer resume."""

import json

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Dense,
    EarlyStopping,
    MLP,
    ReduceLROnPlateau,
    SGD,
    Trainer,
    load_checkpoint,
    read_npz,
    restore_rng,
    rng_from_state,
    rng_state,
    save_checkpoint,
    write_npz,
)
from repro.nn.checkpoint import CHECKPOINT_SCHEMA_VERSION


# ----------------------------------------------------------------------
# raw npz + meta IO
# ----------------------------------------------------------------------
def test_write_read_npz_round_trip(tmp_path):
    path = str(tmp_path / "payload.npz")
    arrays = {"a/b": np.arange(6.0).reshape(2, 3), "flags": np.array([True, False])}
    meta = {"name": "x", "nested": {"k": [1, 2, 3]}, "value": 1.5}
    write_npz(path, arrays, meta)
    loaded_arrays, loaded_meta = read_npz(path)
    assert set(loaded_arrays) == {"a/b", "flags"}
    np.testing.assert_array_equal(loaded_arrays["a/b"], arrays["a/b"])
    np.testing.assert_array_equal(loaded_arrays["flags"], arrays["flags"])
    assert loaded_meta == meta


def test_write_npz_uses_exact_path_and_rejects_reserved_key(tmp_path):
    path = str(tmp_path / "no-extension")
    write_npz(path, {"x": np.zeros(2)}, {})
    arrays, _ = read_npz(path)  # no ".npz" appended by numpy
    assert "x" in arrays
    with pytest.raises(ValueError):
        write_npz(str(tmp_path / "bad.npz"), {"__meta__": np.zeros(1)}, {})


# ----------------------------------------------------------------------
# RNG stream round trips
# ----------------------------------------------------------------------
def test_rng_state_round_trip_continues_stream():
    rng = np.random.default_rng(123)
    rng.standard_normal(17)
    state = rng_state(rng)
    expected = rng.standard_normal(8)
    clone = rng_from_state(state)
    np.testing.assert_array_equal(clone.standard_normal(8), expected)


def _children(rng, n=3):
    return [child.bit_generator.state for child in rng.spawn(n)]


def test_rng_state_round_trip_spawns_the_same_children():
    rng = np.random.default_rng(123)
    rng.spawn(2)
    rng.standard_normal(3)
    state = json.loads(json.dumps(rng_state(rng)))  # the wire and artifact form
    clone, twin = rng_from_state(state), rng_from_state(state)
    expected = _children(rng)
    assert _children(clone) == expected
    assert _children(twin) == expected


def test_restore_rng_catches_up_on_spawned_children():
    rng = np.random.default_rng(5)
    rng.spawn(4)
    state = rng_state(rng)
    fresh = restore_rng(np.random.default_rng(5), state)
    assert _children(fresh) == _children(rng)


def test_restore_rng_refuses_another_seed_sequence():
    state = rng_state(np.random.default_rng(5))
    with pytest.raises(ValueError, match="seed sequence mismatch"):
        restore_rng(np.random.default_rng(6), state)
    spawned = np.random.default_rng(5)
    spawned.spawn(1)
    with pytest.raises(ValueError, match="cannot be undone"):
        restore_rng(spawned, state)


def test_snapshots_without_a_seed_sequence_restore_the_stream_position():
    rng = np.random.default_rng(8)
    rng.standard_normal(3)
    state = rng.bit_generator.state  # the snapshot format before seed_seq
    expected = rng.standard_normal(4)
    np.testing.assert_array_equal(rng_from_state(state).standard_normal(4), expected)
    other = restore_rng(np.random.default_rng(1), state)
    np.testing.assert_array_equal(other.standard_normal(4), expected)


def test_restore_rng_rejects_bit_generator_mismatch():
    rng = np.random.default_rng(0)
    state = dict(rng_state(rng))
    state["bit_generator"] = "MT19937"
    with pytest.raises(ValueError):
        restore_rng(rng, state)


# ----------------------------------------------------------------------
# optimizer / scheduler state round trips
# ----------------------------------------------------------------------
def _quadratic_step(model, optimizer):
    model.zero_grad()
    for p in model.parameters():
        p.grad += p.data  # gradient of 0.5 * ||w||^2
    optimizer.step()


def test_adam_state_round_trip_continues_identically():
    model_a = Dense(4, 3, rng=0)
    model_b = Dense(4, 3, rng=0)
    opt_a = Adam(model_a.parameters(), lr=1e-2)
    opt_b = Adam(model_b.parameters(), lr=1e-2)
    for _ in range(5):
        _quadratic_step(model_a, opt_a)
    # transplant weights + optimizer state, then continue both in lockstep
    model_b.load_state_dict(model_a.state_dict())
    opt_b.load_state_dict(opt_a.state_dict())
    for _ in range(3):
        _quadratic_step(model_a, opt_a)
        _quadratic_step(model_b, opt_b)
    for pa, pb in zip(model_a.parameters(), model_b.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_adam_load_rejects_wrong_slot_count_and_shape():
    model = Dense(4, 3, rng=0)
    opt = Adam(model.parameters(), lr=1e-2)
    _quadratic_step(model, opt)
    state = opt.state_dict()
    bad = {**state, "slots": {"m": state["slots"]["m"][:-1], "v": state["slots"]["v"]}}
    with pytest.raises(ValueError):
        opt.load_state_dict(bad)
    bad_shape = {
        **state,
        "slots": {
            "m": [np.zeros((1, 1)) for _ in state["slots"]["m"]],
            "v": state["slots"]["v"],
        },
    }
    with pytest.raises(ValueError):
        opt.load_state_dict(bad_shape)
    with pytest.raises(KeyError):
        opt.load_state_dict({**state, "slots": {"unknown": state["slots"]["m"]}})


def test_sgd_momentum_state_round_trip():
    model_a = Dense(3, 2, rng=1)
    model_b = Dense(3, 2, rng=1)
    opt_a = SGD(model_a.parameters(), lr=1e-2, momentum=0.9)
    opt_b = SGD(model_b.parameters(), lr=1e-2, momentum=0.9)
    for _ in range(4):
        _quadratic_step(model_a, opt_a)
    model_b.load_state_dict(model_a.state_dict())
    opt_b.load_state_dict(opt_a.state_dict())
    _quadratic_step(model_a, opt_a)
    _quadratic_step(model_b, opt_b)
    for pa, pb in zip(model_a.parameters(), model_b.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_scheduler_and_early_stopping_state_round_trip():
    model = Dense(2, 2, rng=0)
    opt = Adam(model.parameters(), lr=1e-3)
    sched = ReduceLROnPlateau(opt, patience=2)
    stop = EarlyStopping(patience=3)
    for value in (1.0, 0.9, 0.95, 0.96):
        sched.step(value)
        stop.step(value)
    sched2 = ReduceLROnPlateau(Adam(model.parameters(), lr=1e-3), patience=2)
    stop2 = EarlyStopping(patience=3)
    sched2.load_state_dict(sched.state_dict())
    stop2.load_state_dict(stop.state_dict())
    assert sched2.best == sched.best
    assert sched2.num_bad_epochs == sched.num_bad_epochs
    assert stop2.state_dict() == stop.state_dict()


# ----------------------------------------------------------------------
# full checkpoints
# ----------------------------------------------------------------------
def test_save_load_checkpoint_restores_all_components(tmp_path):
    path = str(tmp_path / "ckpt.npz")
    model = MLP(3, [4], 2, rng=0)
    opt = Adam(model.parameters(), lr=5e-3)
    sched = ReduceLROnPlateau(opt, patience=1)
    stop = EarlyStopping(patience=2)
    rng = np.random.default_rng(9)
    _quadratic_step(model, opt)
    sched.step(0.5)
    stop.step(0.5)
    rng.standard_normal(5)
    expected_draw = rng_from_state(rng_state(rng)).standard_normal(4)
    save_checkpoint(
        path, model=model, optimizer=opt, scheduler=sched, early_stopping=stop,
        rng=rng, extra_arrays={"history": np.arange(3.0)}, meta={"epoch": 7},
    )

    model2 = MLP(3, [4], 2, rng=1)
    opt2 = Adam(model2.parameters(), lr=1e-3)
    sched2 = ReduceLROnPlateau(opt2, patience=1)
    stop2 = EarlyStopping(patience=2)
    rng2 = np.random.default_rng(9)  # a fresh stream of the same seed, as on resume
    result = load_checkpoint(
        path, model=model2, optimizer=opt2, scheduler=sched2,
        early_stopping=stop2, rng=rng2,
    )
    for (na, pa), (nb, pb) in zip(model.named_parameters(), model2.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)
    assert opt2.lr == opt.lr and opt2._t == opt._t
    assert sched2.state_dict() == sched.state_dict()
    assert stop2.state_dict() == stop.state_dict()
    np.testing.assert_array_equal(rng2.standard_normal(4), expected_draw)
    assert result["meta"] == {"epoch": 7}
    np.testing.assert_array_equal(result["arrays"]["history"], np.arange(3.0))


def test_load_checkpoint_errors_on_missing_components_and_new_schema(tmp_path):
    path = str(tmp_path / "partial.npz")
    save_checkpoint(path, rng=np.random.default_rng(0))
    model = Dense(2, 2, rng=0)
    with pytest.raises(ValueError, match="no model state"):
        load_checkpoint(path, model=model)
    with pytest.raises(ValueError, match="no optimizer state"):
        load_checkpoint(path, optimizer=Adam(model.parameters(), lr=1e-3))
    newer = str(tmp_path / "newer.npz")
    write_npz(newer, {}, {"schema_version": CHECKPOINT_SCHEMA_VERSION + 1})
    with pytest.raises(ValueError, match="schema version"):
        load_checkpoint(newer)


# ----------------------------------------------------------------------
# Trainer resume
# ----------------------------------------------------------------------
class _Regression(Dense):
    """Dense layer with the Trainer's loss protocol bolted on."""

    def loss_and_backward(self, batch):
        pred = self.forward(batch["x"])[:, 0]
        err = pred - batch["y"]
        self.backward((2.0 * err / err.size)[:, None])
        return float(np.mean(err**2))

    def validation_loss(self, batch):
        pred = self.forward(batch["x"])[:, 0]
        self.clear_cache()
        return float(np.mean((pred - batch["y"]) ** 2))


def _make_problem():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((48, 3))
    y = X @ np.array([1.0, -2.0, 0.5])
    return X, y


def _run_training(max_epochs, checkpoint_dir=None, resume=False):
    X, y = _make_problem()
    model = _Regression(3, 1, rng=0)
    loader_rng = np.random.default_rng(42)

    def batches():
        order = loader_rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], 16):
            rows = order[start : start + 16]
            yield {"x": X[rows], "y": y[rows]}

    trainer = Trainer(
        model,
        optimizer=Adam(model.parameters(), lr=1e-2),
        max_epochs=max_epochs,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        checkpoint_rng=loader_rng,
    )
    history = trainer.fit(batches, batches)
    return model, history


def test_trainer_resume_is_bit_exact(tmp_path):
    model_full, history_full = _run_training(8)
    ckpt = str(tmp_path / "ckpt")
    _run_training(4, checkpoint_dir=ckpt)  # interrupted run
    model_resumed, history_resumed = _run_training(8, checkpoint_dir=ckpt, resume=True)
    for pa, pb in zip(model_full.parameters(), model_resumed.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)
    assert history_full.train_loss == history_resumed.train_loss
    assert history_full.val_loss == history_resumed.val_loss
    assert history_full.best_epoch == history_resumed.best_epoch


def test_trainer_resume_with_no_checkpoint_starts_fresh(tmp_path):
    ckpt = str(tmp_path / "empty")
    model, history = _run_training(3, checkpoint_dir=ckpt, resume=True)
    assert history.num_epochs == 3


def test_trainer_resume_requires_checkpoint_dir():
    model = _Regression(3, 1, rng=0)
    with pytest.raises(ValueError):
        Trainer(model, optimizer=Adam(model.parameters(), lr=1e-2), resume=True)
