"""Gradient-based optimizers (SGD with momentum, ADAM) and gradient clipping.

The paper trains RankNet with ADAM at learning rate 1e-3 with a
reduce-on-plateau decay of factor 0.5 (Table IV); both pieces are provided
here (decay lives in :mod:`repro.nn.schedulers`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for monitoring exploding
    gradients in the recurrent models).
    """
    total = 0.0
    for p in parameters:
        total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if max_norm > 0.0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in parameters:
            p.grad *= scale
    return norm


class Optimizer:
    """Base class holding a parameter list and the current learning rate.

    Optimizers expose ``state_dict``/``load_state_dict`` so an interrupted
    training run can resume bit-exactly: the scalar hyper-state goes into a
    JSON-safe dict and the per-parameter buffers (e.g. the ADAM moments)
    into a list of arrays aligned with the optimizer's parameter order.
    """

    def __init__(self, parameters: Sequence[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def set_lr(self, lr: float) -> None:
        self.lr = float(lr)

    # ------------------------------------------------------------------
    # (de)serialisation
    # ------------------------------------------------------------------
    def _slot_names(self) -> List[str]:
        """Names of the per-parameter buffer groups (e.g. ``["m", "v"]``)."""
        return []

    def _get_slot(self, name: str, param: Parameter) -> np.ndarray:
        raise KeyError(name)  # pragma: no cover - overridden with slots

    def _set_slot(self, name: str, param: Parameter, value: np.ndarray) -> None:
        raise KeyError(name)  # pragma: no cover - overridden with slots

    def state_dict(self) -> Dict:
        """JSON-safe scalars plus per-parameter buffers (parameter order)."""
        slots = {
            name: [self._get_slot(name, p).copy() for p in self.parameters]
            for name in self._slot_names()
        }
        return {"lr": self.lr, "slots": slots}

    def load_state_dict(self, state: Dict) -> None:
        self.lr = float(state["lr"])
        for name, buffers in state.get("slots", {}).items():
            if name not in self._slot_names():
                raise KeyError(f"unknown optimizer slot {name!r}")
            if len(buffers) != len(self.parameters):
                raise ValueError(
                    f"slot {name!r} has {len(buffers)} buffers for "
                    f"{len(self.parameters)} parameters"
                )
            for p, value in zip(self.parameters, buffers):
                value = np.asarray(value, dtype=np.float64)
                if value.shape != p.data.shape:
                    raise ValueError(
                        f"slot {name!r} shape mismatch: expected {p.data.shape}, "
                        f"got {value.shape}"
                    )
                self._set_slot(name, p, value.copy())


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Dict[int, np.ndarray] = {}

    def _slot_names(self) -> List[str]:
        return ["velocity"] if self.momentum > 0.0 else []

    def _get_slot(self, name: str, param: Parameter) -> np.ndarray:
        v = self._velocity.get(id(param))
        return v if v is not None else np.zeros_like(param.data)

    def _set_slot(self, name: str, param: Parameter, value: np.ndarray) -> None:
        self._velocity[id(param)] = value

    def step(self) -> None:
        for p in self.parameters:
            grad = p.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * p.data
            if self.momentum > 0.0:
                v = self._velocity.get(id(p))
                if v is None:
                    v = np.zeros_like(p.data)
                v = self.momentum * v - self.lr * grad
                self._velocity[id(p)] = v
                p.data += v
            else:
                p.data -= self.lr * grad


class Adam(Optimizer):
    """ADAM optimizer (Kingma & Ba, 2014) over one flat moment vector.

    The first and second moments of every parameter live in two flat
    float64 vectors, one view per parameter, so a step gathers the
    gradients into one buffer, runs the update as 13 in-place or ``out=``
    ufunc calls over the whole vector, then does one ``p.data -= step``
    per parameter.  ``p.grad`` and ``p.data`` are read by attribute on
    every step, so rebinding ``p.data`` between steps (e.g.
    ``Module.load_state_dict`` restoring the best weights) is safe.

    Every element goes through the same float64 operations, in the same
    order, as the textbook per-parameter loop, so the bytes match it::

        g = grad + weight_decay * data        # only when weight_decay > 0
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + ((1 - beta2) * g) * g
        data -= lr * (m / bc1) / (sqrt(v / bc2) + eps)

    with ``bc1 = 1 - beta1**t`` and ``bc2 = 1 - beta2**t``.  The
    checkpoint format is per parameter (slots ``m`` and ``v`` in
    parameter order, plus ``t``), as for every optimizer here.
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._t = 0
        size = sum(p.data.size for p in self.parameters)
        # moments, gathered grads and two scratch vectors
        self._m, self._v, self._g, self._step, self._den = np.zeros((5, size))
        self._m_views = self._views(self._m)
        self._v_views = self._views(self._v)
        self._step_views = self._views(self._step)
        self._index = {id(p): i for i, p in enumerate(self.parameters)}
        if len(self._index) != len(self.parameters):
            raise ValueError("Adam received the same parameter twice")

    def _views(self, flat: np.ndarray) -> List[np.ndarray]:
        views, start = [], 0
        for p in self.parameters:
            views.append(flat[start : start + p.data.size].reshape(p.data.shape))
            start += p.data.size
        return views

    def _slot_names(self) -> List[str]:
        return ["m", "v"]

    def _get_slot(self, name: str, param: Parameter) -> np.ndarray:
        views = self._m_views if name == "m" else self._v_views
        return views[self._index[id(param)]]

    def _set_slot(self, name: str, param: Parameter, value: np.ndarray) -> None:
        self._get_slot(name, param)[...] = value

    def state_dict(self) -> Dict:
        state = super().state_dict()
        state["t"] = self._t
        return state

    def load_state_dict(self, state: Dict) -> None:
        super().load_state_dict(state)
        self._t = int(state.get("t", 0))

    def step(self) -> None:
        self._t += 1
        bias_c1 = 1.0 - self.beta1 ** self._t
        bias_c2 = 1.0 - self.beta2 ** self._t
        m, v, g, step, den = self._m, self._v, self._g, self._step, self._den
        np.concatenate([p.grad.ravel() for p in self.parameters], out=g)
        if self.weight_decay > 0.0:
            np.concatenate([p.data.ravel() for p in self.parameters], out=den)
            den *= self.weight_decay
            g += den
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=step)
        m += step
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=step)
        step *= g
        v += step
        np.divide(m, bias_c1, out=step)
        step *= self.lr
        np.divide(v, bias_c2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        step /= den
        for p, delta in zip(self.parameters, self._step_views):
            p.data -= delta
