"""Reference ADAM: the per-parameter loop the flat-moment update replaced.

:class:`ReferenceAdam` keeps one ``m``/``v`` array per parameter, keyed by
``id(param)``, and updates each parameter with its own handful of NumPy
expressions.  It subclasses the shipped :class:`repro.nn.Optimizer`, so its
``state_dict``/``load_state_dict`` use the same per-parameter slot format
and a state saved by either optimizer loads into the other.  Parity tests
compare :class:`repro.nn.Adam` with it bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.nn import Optimizer, Parameter


class ReferenceAdam(Optimizer):
    """ADAM (Kingma & Ba, 2014), one parameter at a time."""

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
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def _slot_names(self) -> List[str]:
        return ["m", "v"]

    def _get_slot(self, name: str, param: Parameter) -> np.ndarray:
        store = self._m if name == "m" else self._v
        value = store.get(id(param))
        return value if value is not None else np.zeros_like(param.data)

    def _set_slot(self, name: str, param: Parameter, value: np.ndarray) -> None:
        store = self._m if name == "m" else self._v
        store[id(param)] = value

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
        for p in self.parameters:
            grad = p.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * p.data
            m = self._m.get(id(p))
            v = self._v.get(id(p))
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
            self._m[id(p)] = m
            self._v[id(p)] = v
            m_hat = m / bias_c1
            v_hat = v / bias_c2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
