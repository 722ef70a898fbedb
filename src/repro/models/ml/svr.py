"""Kernel support vector regression.

Kernel SVR trained in the primal of the kernel expansion (representer
theorem): ``f(x) = sum_i alpha_i K(x_i, x) + b`` with the smooth
(squared) epsilon-insensitive loss

    J(alpha, b) = 0.5 * alpha^T K alpha + C * sum_i max(|y_i - f(x_i)| - eps, 0)^2

optimised with L-BFGS.  The squared epsilon-insensitive loss is the same
variant exposed by scikit-learn's ``LinearSVR(loss="squared_epsilon_
insensitive")``; it keeps the flat insensitivity tube of classical SVR while
making the objective differentiable, which lets a quasi-Newton solver reach
a good optimum in a handful of milliseconds for the training-set sizes used
by the pointwise rank-change baseline.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["SVR", "rbf_kernel"]


def rbf_kernel(X: np.ndarray, Y: np.ndarray, gamma: float) -> np.ndarray:
    """Radial basis function kernel matrix ``K[i, j] = exp(-gamma ||x_i - y_j||^2)``."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    x_sq = np.sum(X * X, axis=1)[:, None]
    y_sq = np.sum(Y * Y, axis=1)[None, :]
    d2 = np.maximum(x_sq + y_sq - 2.0 * X @ Y.T, 0.0)
    return np.exp(-gamma * d2)


class SVR:
    """Epsilon-insensitive kernel SVR (RBF or linear kernel)."""

    def __init__(
        self,
        C: float = 1.0,
        epsilon: float = 0.1,
        gamma: Optional[float] = None,
        kernel: str = "rbf",
        max_iter: int = 200,
        max_train_size: int = 1500,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if C <= 0:
            raise ValueError("C must be positive")
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if kernel not in {"rbf", "linear"}:
            raise ValueError(f"unsupported kernel {kernel!r}")
        self.C = float(C)
        self.epsilon = float(epsilon)
        self.gamma = gamma
        self.kernel = kernel
        self.max_iter = int(max_iter)
        self.max_train_size = int(max_train_size)
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.X_: Optional[np.ndarray] = None
        self.alpha_: Optional[np.ndarray] = None
        self.b_: float = 0.0
        self._y_mean: float = 0.0
        self._y_std: float = 1.0
        self._x_mean: Optional[np.ndarray] = None
        self._x_std: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _kernel(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        if self.kernel == "linear":
            return X @ Y.T
        gamma = self.gamma if self.gamma is not None else 1.0 / X.shape[1]
        return rbf_kernel(X, Y, gamma)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SVR":
        from scipy.optimize import minimize

        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.shape[0] == 0:
            raise ValueError("cannot fit SVR on an empty dataset")
        if X.shape[0] > self.max_train_size:
            idx = self.rng.choice(X.shape[0], size=self.max_train_size, replace=False)
            X, y = X[idx], y[idx]
        # standardise inputs and target for a well-conditioned optimisation
        self._x_mean = X.mean(axis=0)
        self._x_std = np.where(X.std(axis=0) < 1e-9, 1.0, X.std(axis=0))
        Xs = (X - self._x_mean) / self._x_std
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        ys = (y - self._y_mean) / self._y_std

        n = Xs.shape[0]
        K = self._kernel(Xs, Xs)
        eps = self.epsilon / self._y_std
        C = self.C

        def objective(theta: np.ndarray):
            alpha, b = theta[:n], theta[n]
            f = K @ alpha + b
            err = f - ys
            slack = np.maximum(np.abs(err) - eps, 0.0)
            reg = K @ alpha
            value = 0.5 * float(alpha @ reg) + C * float(np.sum(slack * slack))
            dl_df = 2.0 * C * np.sign(err) * slack
            grad_alpha = reg + K @ dl_df
            grad_b = float(dl_df.sum())
            return value, np.concatenate([grad_alpha, [grad_b]])

        result = minimize(
            objective,
            np.zeros(n + 1),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.X_ = Xs
        self.alpha_ = result.x[:n]
        self.b_ = float(result.x[n])
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.X_ is None or self.alpha_ is None:
            raise RuntimeError("SVR must be fit before predicting")
        X = np.asarray(X, dtype=np.float64)
        Xs = (X - self._x_mean) / self._x_std
        K = self._kernel(Xs, self.X_)
        f = K @ self.alpha_ + self.b_
        return f * self._y_std + self._y_mean

    @property
    def support_fraction(self) -> float:
        """Fraction of training points with non-negligible coefficients."""
        if self.alpha_ is None:
            return 0.0
        return float(np.mean(np.abs(self.alpha_) > 1e-6))

    # ------------------------------------------------------------------
    # artifact (de)serialisation
    # ------------------------------------------------------------------
    def artifact_state(self) -> tuple:
        """Fitted state as ``(json_safe_meta, named_arrays)``."""
        if self.X_ is None or self.alpha_ is None:
            raise RuntimeError("SVR must be fit before serialising")
        arrays = {
            "X": self.X_,
            "alpha": self.alpha_,
            "x_mean": self._x_mean,
            "x_std": self._x_std,
        }
        meta = {"b": self.b_, "y_mean": self._y_mean, "y_std": self._y_std}
        return meta, arrays

    def load_artifact_state(self, meta: dict, arrays: dict) -> "SVR":
        self.X_ = np.asarray(arrays["X"], dtype=np.float64)
        self.alpha_ = np.asarray(arrays["alpha"], dtype=np.float64)
        self._x_mean = np.asarray(arrays["x_mean"], dtype=np.float64)
        self._x_std = np.asarray(arrays["x_std"], dtype=np.float64)
        self.b_ = float(meta["b"])
        self._y_mean = float(meta["y_mean"])
        self._y_std = float(meta["y_std"])
        return self
