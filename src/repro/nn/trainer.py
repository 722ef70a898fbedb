"""Generic mini-batch training loop implementing Algorithm 1 of the paper.

The :class:`Trainer` works with any model exposing

* ``loss_and_backward(batch) -> float`` — compute the training loss for a
  batch, back-propagate into parameter ``grad`` buffers; and
* ``validation_loss(batch) -> float`` — forward-only loss for validation.

Training follows the recipe in Table IV / §IV-C: ADAM optimiser, mini-batch
updates, reduce-on-plateau learning-rate decay and early stopping on the
validation loss.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Protocol

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .module import Module
from .optimizers import Adam, Optimizer, clip_grad_norm
from .schedulers import EarlyStopping, ReduceLROnPlateau

__all__ = ["NonFiniteLossError", "TrainableModel", "TrainingHistory", "Trainer"]


class NonFiniteLossError(ValueError):
    """An epoch's training or validation loss is NaN or infinite."""


class TrainableModel(Protocol):
    """Structural protocol for models usable with :class:`Trainer`."""

    def loss_and_backward(self, batch: Dict[str, np.ndarray]) -> float: ...

    def validation_loss(self, batch: Dict[str, np.ndarray]) -> float: ...

    def parameters(self): ...

    def train(self, flag: bool = True): ...

    def eval(self): ...


@dataclass
class TrainingHistory:
    """Per-epoch record of the training run."""

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    learning_rate: List[float] = field(default_factory=list)
    grad_norm: List[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    stopped_early: bool = False

    @property
    def num_epochs(self) -> int:
        return len(self.train_loss)


class Trainer:
    """Mini-batch trainer with validation-driven LR decay and early stopping.

    When ``checkpoint_dir`` is set, the full training state — model weights,
    ADAM moments and step count, scheduler / early-stopping counters, the
    best-so-far weights and (optionally) the data-order RNG stream — is
    snapshotted to ``<checkpoint_dir>/trainer.npz`` after every
    ``checkpoint_every``-th epoch.  A later run constructed with
    ``resume=True`` picks up from the last completed epoch and reproduces
    the uninterrupted run bit-exactly, provided the batch streams draw their
    shuffling randomness from the generator passed as ``checkpoint_rng``.
    """

    CHECKPOINT_NAME = "trainer.npz"

    def __init__(
        self,
        model: TrainableModel,
        optimizer: Optional[Optimizer] = None,
        lr: float = 1e-3,
        max_epochs: int = 50,
        clip_norm: float = 10.0,
        lr_decay_factor: float = 0.5,
        lr_patience: int = 10,
        early_stopping_patience: int = 20,
        min_lr: float = 1e-5,
        restore_best: bool = True,
        verbose: bool = False,
        callback: Optional[Callable[[int, TrainingHistory], None]] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        checkpoint_every: int = 1,
        checkpoint_rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer or Adam(model.parameters(), lr=lr)
        self.max_epochs = int(max_epochs)
        self.clip_norm = float(clip_norm)
        self.scheduler = ReduceLROnPlateau(
            self.optimizer, factor=lr_decay_factor, patience=lr_patience, min_lr=min_lr
        )
        self.early_stopping = EarlyStopping(patience=early_stopping_patience)
        self.restore_best = bool(restore_best)
        self.verbose = bool(verbose)
        self.callback = callback
        self.checkpoint_dir = checkpoint_dir
        self.resume = bool(resume)
        self.checkpoint_every = max(int(checkpoint_every), 1)
        self.checkpoint_rng = checkpoint_rng
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True requires a checkpoint_dir")

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    @property
    def checkpoint_path(self) -> Optional[str]:
        if self.checkpoint_dir is None:
            return None
        return os.path.join(self.checkpoint_dir, self.CHECKPOINT_NAME)

    def _save_checkpoint(
        self,
        next_epoch: int,
        history: TrainingHistory,
        best_state: Optional[Dict[str, np.ndarray]],
    ) -> None:
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        extra: Dict[str, np.ndarray] = {
            "history/train_loss": np.asarray(history.train_loss, dtype=np.float64),
            "history/val_loss": np.asarray(history.val_loss, dtype=np.float64),
            "history/learning_rate": np.asarray(history.learning_rate, dtype=np.float64),
            "history/grad_norm": np.asarray(history.grad_norm, dtype=np.float64),
        }
        if best_state is not None:
            for name, value in best_state.items():
                extra[f"best/{name}"] = value
        save_checkpoint(
            self.checkpoint_path,
            model=self.model if isinstance(self.model, Module) else None,
            optimizer=self.optimizer,
            scheduler=self.scheduler,
            early_stopping=self.early_stopping,
            rng=self.checkpoint_rng,
            extra_arrays=extra,
            meta={
                "next_epoch": int(next_epoch),
                "best_epoch": int(history.best_epoch),
                "best_val_loss": float(history.best_val_loss),
                "stopped_early": bool(history.stopped_early),
                "has_best": best_state is not None,
            },
        )

    def _load_checkpoint(self, history: TrainingHistory):
        """Restore trainer state in place; returns ``(next_epoch, best_state)``."""
        loaded = load_checkpoint(
            self.checkpoint_path,
            model=self.model if isinstance(self.model, Module) else None,
            optimizer=self.optimizer,
            scheduler=self.scheduler,
            early_stopping=self.early_stopping,
            rng=self.checkpoint_rng,
        )
        meta, extra = loaded["meta"], loaded["arrays"]
        history.train_loss[:] = [float(x) for x in extra["history/train_loss"]]
        history.val_loss[:] = [float(x) for x in extra["history/val_loss"]]
        history.learning_rate[:] = [float(x) for x in extra["history/learning_rate"]]
        history.grad_norm[:] = [float(x) for x in extra["history/grad_norm"]]
        history.best_epoch = int(meta["best_epoch"])
        history.best_val_loss = float(meta["best_val_loss"])
        history.stopped_early = bool(meta["stopped_early"])
        best_state: Optional[Dict[str, np.ndarray]] = None
        if meta.get("has_best"):
            prefix = "best/"
            best_state = {
                key[len(prefix) :]: value
                for key, value in extra.items()
                if key.startswith(prefix)
            }
        return int(meta["next_epoch"]), best_state

    def fit(
        self,
        train_batches: Callable[[], Iterable[Dict[str, np.ndarray]]],
        val_batches: Optional[Callable[[], Iterable[Dict[str, np.ndarray]]]] = None,
    ) -> TrainingHistory:
        """Train the model.

        Parameters
        ----------
        train_batches, val_batches:
            Zero-argument callables returning a fresh iterable of batches
            (dicts of arrays) for each epoch, e.g. a bound method of a
            :class:`repro.data.loader.BatchLoader`.
        """
        history = TrainingHistory()
        best_state: Optional[Dict[str, np.ndarray]] = None
        start_epoch = 0
        if self.resume and self.checkpoint_path and os.path.exists(self.checkpoint_path):
            start_epoch, best_state = self._load_checkpoint(history)

        for epoch in range(start_epoch, self.max_epochs):
            if history.stopped_early:
                break
            self.model.train(True)
            epoch_losses: List[float] = []
            epoch_norms: List[float] = []
            for batch in train_batches():
                self.optimizer.zero_grad()
                loss = self.model.loss_and_backward(batch)
                norm = clip_grad_norm(self.optimizer.parameters, self.clip_norm)
                self.optimizer.step()
                epoch_losses.append(float(loss))
                epoch_norms.append(norm)
            train_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")

            if val_batches is not None:
                self.model.eval()
                val_losses = [
                    float(self.model.validation_loss(batch)) for batch in val_batches()
                ]
                val_loss = float(np.mean(val_losses)) if val_losses else train_loss
            else:
                val_loss = train_loss
            # refused before the epoch is recorded or checkpointed, so no
            # NaN-poisoned weights reach a checkpoint or an artifact
            if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
                raise NonFiniteLossError(
                    f"epoch {epoch}: non-finite loss (train {train_loss}, val {val_loss}); "
                    "check the training data for NaN or infinite values"
                )

            history.train_loss.append(train_loss)
            history.val_loss.append(val_loss)
            history.grad_norm.append(float(np.mean(epoch_norms)) if epoch_norms else 0.0)
            history.learning_rate.append(self.optimizer.lr)

            if val_loss < history.best_val_loss:
                history.best_val_loss = val_loss
                history.best_epoch = epoch
                if self.restore_best and isinstance(self.model, Module):
                    best_state = self.model.state_dict()

            self.scheduler.step(val_loss)
            if self.callback is not None:
                self.callback(epoch, history)
            if self.verbose:  # pragma: no cover - logging only
                print(
                    f"epoch {epoch:3d}  train={train_loss:.4f}  val={val_loss:.4f}  "
                    f"lr={self.optimizer.lr:.2e}"
                )
            if self.early_stopping.step(val_loss):
                history.stopped_early = True
            if self.checkpoint_dir is not None and (
                history.stopped_early
                or (epoch + 1) % self.checkpoint_every == 0
                or epoch + 1 == self.max_epochs
            ):
                self._save_checkpoint(epoch + 1, history, best_state)
            if history.stopped_early:
                break

        if self.restore_best and best_state is not None and isinstance(self.model, Module):
            self.model.load_state_dict(best_state)
        self.model.eval()
        return history
