"""Element-wise activation functions and their derivatives.

Every activation is exposed both as a pair of vectorised functions
(``f(x)`` and ``f_grad`` expressed in terms of the *output* where possible,
which is what the cached values in the layers hold) and as a lightweight
:class:`Activation` object usable inside :class:`repro.nn.layers.Dense`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

__all__ = [
    "sigmoid",
    "sigmoid_dense",
    "sigmoid_grad_from_output",
    "tanh",
    "tanh_grad_from_output",
    "relu",
    "relu_grad",
    "leaky_relu",
    "leaky_relu_grad",
    "softplus",
    "softplus_grad",
    "softmax",
    "log_softmax",
    "identity",
    "Activation",
    "get_activation",
]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid.

    Dtype-preserving on the float dtypes the precision tiers run
    (float32 stays float32); everything else computes in the float64
    reference precision, bitwise as before.
    """
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def sigmoid_dense(
    x: np.ndarray,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Bitwise-identical :func:`sigmoid` without boolean gather/scatter.

    ``exp(-|x|)`` equals ``exp(-x)`` on the non-negative branch and
    ``exp(x)`` on the negative branch, so both stable branches share one
    dense ``exp`` pass.  The branch *numerator* (``1`` vs ``e``) is
    ``max(m, e)`` for the 0/1 mask ``m = (x >= 0)``: ``e <= 1`` when
    ``m = 1`` and ``e >= 0`` (or NaN, which ``maximum`` propagates) when
    ``m = 0`` — so the per-element expression is exactly the one
    :func:`sigmoid` evaluates and the results agree bit for bit, ``±0``,
    ``±inf`` and subnormals included (a NaN gives a NaN, whose sign bit
    may differ).  Six dense passes (``copysign``, ``exp``, ``>=``,
    ``maximum``, ``+ 1``, ``/``) replace the masked fancy indexing, which
    makes this several times faster on large arrays; the
    byte-identity-gated decode kernels use it.  ``out``
    may alias ``x``; ``scratch``, if given, must be an array of ``x``'s
    shape and compute dtype aliasing neither ``x`` nor ``out``, and makes
    the call allocation-free.  Like :func:`sigmoid`, float32 input stays
    float32 (the low-precision decode tier); any other dtype computes in
    the float64 reference precision, bitwise as before.
    """
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty_like(x)
    e = np.empty_like(out) if scratch is None else scratch
    np.copysign(x, -1.0, out=e)
    np.exp(e, out=e)  # e = exp(-|x|): exp(-x) for x >= 0, exp(x) for x < 0
    # x is fully consumed here, so ``out`` may alias it from now on
    np.greater_equal(x, 0.0, out=out, casting="unsafe")  # m: 1.0 / 0.0
    np.maximum(out, e, out=out)  # numerator: 1 (non-negative) or e (negative)
    np.add(e, 1.0, out=e)  # shared denominator: 1 + exp(-|x|)
    np.divide(out, e, out=out)
    return out


def sigmoid_grad_from_output(y: np.ndarray) -> np.ndarray:
    return y * (1.0 - y)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_grad_from_output(y: np.ndarray) -> np.ndarray:
    return 1.0 - y * y


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(np.float64)


def leaky_relu(x: np.ndarray, alpha: float = 0.01) -> np.ndarray:
    return np.where(x > 0.0, x, alpha * x)


def leaky_relu_grad(x: np.ndarray, alpha: float = 0.01) -> np.ndarray:
    return np.where(x > 0.0, 1.0, alpha)


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) computed without overflow."""
    return np.logaddexp(0.0, x)


def softplus_grad(x: np.ndarray) -> np.ndarray:
    return sigmoid(x)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Row-stable softmax in one output allocation; ``x`` is not modified."""
    out = x - np.max(x, axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= np.sum(out, axis=axis, keepdims=True)
    return out


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def identity(x: np.ndarray) -> np.ndarray:
    return x


class Activation:
    """Pairs a forward function with its input-space derivative.

    ``grad(x, y)`` receives both the cached input ``x`` and output ``y`` so
    that each activation can use whichever is cheaper.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[np.ndarray], np.ndarray],
        grad: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> None:
        self.name = name
        self.fn = fn
        self.grad = grad

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(x)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Activation({self.name})"


_REGISTRY: Dict[str, Activation] = {
    "identity": Activation("identity", identity, lambda x, y: np.ones_like(x)),
    "linear": Activation("linear", identity, lambda x, y: np.ones_like(x)),
    "sigmoid": Activation("sigmoid", sigmoid, lambda x, y: sigmoid_grad_from_output(y)),
    "tanh": Activation("tanh", tanh, lambda x, y: tanh_grad_from_output(y)),
    "relu": Activation("relu", relu, lambda x, y: relu_grad(x)),
    "leaky_relu": Activation("leaky_relu", leaky_relu, lambda x, y: leaky_relu_grad(x)),
    "softplus": Activation("softplus", softplus, lambda x, y: softplus_grad(x)),
}


def get_activation(name: Optional[str]) -> Activation:
    """Look up an activation by name (``None`` means identity)."""
    if name is None:
        return _REGISTRY["identity"]
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown activation {name!r}; available: {sorted(_REGISTRY)}"
        ) from exc
