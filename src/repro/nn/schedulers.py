"""Learning-rate schedules and early stopping.

The paper (Table IV, §IV-C) trains with ADAM and "an early stopping
mechanism that decays the learning rate when loss on the validation set does
not improve for 10 epochs until reaching a minimum value" with decay factor
0.5 — exactly the behaviour of :class:`ReduceLROnPlateau` combined with
:class:`EarlyStopping`.
"""

from __future__ import annotations

from typing import Optional

from .optimizers import Optimizer

__all__ = ["StepDecay", "ReduceLROnPlateau", "EarlyStopping"]


class StepDecay:
    """Multiplies the learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.5) -> None:
        if step_size < 1:
            raise ValueError("step_size must be >= 1")
        self.optimizer = optimizer
        self.step_size = int(step_size)
        self.gamma = float(gamma)
        self.epoch = 0

    def step(self) -> float:
        self.epoch += 1
        if self.epoch % self.step_size == 0:
            self.optimizer.set_lr(self.optimizer.lr * self.gamma)
        return self.optimizer.lr

    def state_dict(self) -> dict:
        return {"epoch": self.epoch}

    def load_state_dict(self, state: dict) -> None:
        self.epoch = int(state["epoch"])


class ReduceLROnPlateau:
    """Decay the learning rate when the monitored metric stops improving."""

    def __init__(
        self,
        optimizer: Optimizer,
        factor: float = 0.5,
        patience: int = 10,
        min_lr: float = 1e-6,
        min_delta: float = 1e-6,
    ) -> None:
        if not 0.0 < factor < 1.0:
            raise ValueError("factor must be in (0, 1)")
        self.optimizer = optimizer
        self.factor = float(factor)
        self.patience = int(patience)
        self.min_lr = float(min_lr)
        self.min_delta = float(min_delta)
        self.best: Optional[float] = None
        self.num_bad_epochs = 0

    def step(self, metric: float) -> float:
        """Report the latest validation metric; returns the (possibly new) lr."""
        if self.best is None or metric < self.best - self.min_delta:
            self.best = float(metric)
            self.num_bad_epochs = 0
        else:
            self.num_bad_epochs += 1
            if self.num_bad_epochs > self.patience:
                new_lr = max(self.optimizer.lr * self.factor, self.min_lr)
                self.optimizer.set_lr(new_lr)
                self.num_bad_epochs = 0
        return self.optimizer.lr

    @property
    def at_min_lr(self) -> bool:
        return self.optimizer.lr <= self.min_lr * (1.0 + 1e-9)

    def state_dict(self) -> dict:
        return {"best": self.best, "num_bad_epochs": self.num_bad_epochs}

    def load_state_dict(self, state: dict) -> None:
        self.best = None if state["best"] is None else float(state["best"])
        self.num_bad_epochs = int(state["num_bad_epochs"])


class EarlyStopping:
    """Stop training when the validation metric has not improved for ``patience`` epochs."""

    def __init__(self, patience: int = 20, min_delta: float = 1e-6) -> None:
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.best: Optional[float] = None
        self.best_epoch = -1
        self.num_bad_epochs = 0
        self._epoch = -1

    def step(self, metric: float) -> bool:
        """Report a metric; returns ``True`` when training should stop."""
        self._epoch += 1
        if self.best is None or metric < self.best - self.min_delta:
            self.best = float(metric)
            self.best_epoch = self._epoch
            self.num_bad_epochs = 0
            return False
        self.num_bad_epochs += 1
        return self.num_bad_epochs >= self.patience

    def state_dict(self) -> dict:
        return {
            "best": self.best,
            "best_epoch": self.best_epoch,
            "num_bad_epochs": self.num_bad_epochs,
            "epoch": self._epoch,
        }

    def load_state_dict(self, state: dict) -> None:
        self.best = None if state["best"] is None else float(state["best"])
        self.best_epoch = int(state["best_epoch"])
        self.num_bad_epochs = int(state["num_bad_epochs"])
        self._epoch = int(state["epoch"])
