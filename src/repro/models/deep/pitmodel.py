"""PitModel — probabilistic MLP forecasting the lap of the next pit stop.

This is the other half of the RankNet decomposition (Fig. 5(b)): instead of
asking the sequence model to learn the rare pit events jointly with the rank
dynamics, a small multilayer perceptron with a Gaussian output predicts
*how many laps until the car's next pit stop* from the pit-related features
(``CautionLaps``, ``PitAge``, track status, rank, total pit count).

During forecasting the sampled pit laps are converted into a future
race-status covariate plan (LapStatus spikes at the sampled pit laps,
TrackStatus assumed green, PitAge/CautionLaps rolled forward), which the
RankModel then consumes exactly like the oracle covariates.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ...data.features import CarFeatureSeries
from ...data.schema import ALL_COVARIATES
from ...data.stints import next_pit_targets
from ...nn import Adam, GaussianParams, MLP, Module, MultiGaussianOutput, clip_grad_norm
from ...nn.checkpoint import restore_rng, rng_state
from ...nn.losses import gaussian_nll
from ..base import ModelArtifact

__all__ = ["PitModelMLP", "plan_future_covariates"]


class _PitNet(Module):
    """MLP trunk + fused Gaussian head used internally by :class:`PitModelMLP`.

    The head is a :class:`~repro.nn.layers.MultiGaussianOutput` with one
    target dimension: mu and sigma come out of a single ``(H, 2)``
    projection instead of two separate ``(H, 1)`` heads (same training-path
    fusion as the sequence models).
    """

    def __init__(self, in_dim: int, hidden: Sequence[int], rng: np.random.Generator) -> None:
        super().__init__()
        self.trunk = MLP(in_dim, list(hidden), hidden[-1], activation="relu",
                         out_activation="relu", rng=rng)
        self.head = MultiGaussianOutput(hidden[-1], 1, rng=rng)

    def forward(self, x: np.ndarray, with_cache: bool = True) -> GaussianParams:
        h = self.trunk.forward(x)
        mu, sigma = self.head.forward(h, with_cache=with_cache)
        return GaussianParams(mu=mu[:, 0], sigma=sigma[:, 0])

    def backward(self, d_mu: np.ndarray, d_sigma: np.ndarray) -> None:
        dh = self.head.backward(d_mu[:, None], d_sigma[:, None])
        self.trunk.backward(dh)


class PitModelMLP:
    """Probabilistic next-pit-lap forecaster."""

    #: feature order produced by :func:`repro.data.stints.next_pit_targets`
    FEATURE_NAMES = ["caution_laps", "pit_age", "track_status", "rank", "total_pit_count"]

    def __init__(
        self,
        hidden: Sequence[int] = (32, 32),
        lr: float = 1e-2,
        epochs: int = 60,
        batch_size: int = 256,
        max_horizon: int = 60,
        seed: int = 0,
    ) -> None:
        self.hidden = tuple(hidden)
        self.lr = float(lr)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.max_horizon = int(max_horizon)
        self.seed = int(seed)
        self.rng = np.random.default_rng(seed)
        self.net = _PitNet(len(self.FEATURE_NAMES), self.hidden, self.rng)
        self._x_mean: Optional[np.ndarray] = None
        self._x_std: Optional[np.ndarray] = None
        self.fitted_ = False
        self.training_loss_: List[float] = []

    # ------------------------------------------------------------------
    def _build_dataset(self, series_list: Sequence[CarFeatureSeries]) -> tuple:
        feats: List[np.ndarray] = []
        targets: List[float] = []
        for series in series_list:
            for inst in next_pit_targets(series, max_horizon=self.max_horizon):
                feats.append(inst["features"])
                targets.append(inst["target"])
        if not feats:
            raise ValueError("no pit-stop training instances found")
        return np.stack(feats), np.array(targets)

    def fit(self, series_list: Sequence[CarFeatureSeries]) -> "PitModelMLP":
        X, y = self._build_dataset(series_list)
        self._x_mean = X.mean(axis=0)
        self._x_std = np.where(X.std(axis=0) < 1e-9, 1.0, X.std(axis=0))
        Xs = (X - self._x_mean) / self._x_std
        n = Xs.shape[0]
        optimizer = Adam(self.net.parameters(), lr=self.lr)
        self.training_loss_ = []
        for _ in range(self.epochs):
            order = self.rng.permutation(n)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                optimizer.zero_grad()
                params = self.net.forward(Xs[idx])
                loss, d_mu, d_sigma = gaussian_nll(y[idx], params.mu, params.sigma)
                self.net.backward(d_mu, d_sigma)
                clip_grad_norm(optimizer.parameters, 10.0)
                optimizer.step()
                epoch_loss += loss
                batches += 1
            self.training_loss_.append(epoch_loss / max(batches, 1))
        self.fitted_ = True
        return self

    # ------------------------------------------------------------------
    # artifact protocol (mirrors RankForecaster's; also embeddable inside a
    # RankNet-MLP artifact through the *_parts methods)
    # ------------------------------------------------------------------
    def _artifact_config(self) -> dict:
        return {
            "hidden": list(self.hidden),
            "lr": self.lr,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "max_horizon": self.max_horizon,
            "seed": self.seed,
        }

    def _artifact_state(self):
        if not self.fitted_:
            raise RuntimeError("PitModel must be fit before creating an artifact")
        arrays = {f"net/{name}": value for name, value in self.net.state_dict().items()}
        arrays["x_mean"] = self._x_mean
        arrays["x_std"] = self._x_std
        return {"rng": rng_state(self.rng)}, arrays

    def _load_artifact_state(self, state: dict, arrays: dict) -> None:
        prefix = "net/"
        self.net.load_state_dict(
            {key[len(prefix) :]: value for key, value in arrays.items() if key.startswith(prefix)}
        )
        self._x_mean = np.asarray(arrays["x_mean"], dtype=np.float64)
        self._x_std = np.asarray(arrays["x_std"], dtype=np.float64)
        restore_rng(self.rng, state["rng"])
        self.fitted_ = True

    def to_artifact(self) -> ModelArtifact:
        state, arrays = self._artifact_state()
        return ModelArtifact(
            family=type(self).__name__,
            config=self._artifact_config(),
            state=state,
            arrays=arrays,
        )

    @classmethod
    def from_artifact(cls, artifact: ModelArtifact) -> "PitModelMLP":
        if artifact.family != cls.__name__:
            raise ValueError(
                f"artifact family {artifact.family!r} does not match {cls.__name__!r}"
            )
        return cls.from_artifact_parts(artifact.config, artifact.state, artifact.arrays)

    @classmethod
    def from_artifact_parts(cls, config: dict, state: dict, arrays: dict) -> "PitModelMLP":
        model = cls(**config)
        model._load_artifact_state(state, arrays)
        return model

    # ------------------------------------------------------------------
    def _features_at(self, series: CarFeatureSeries, origin: int) -> np.ndarray:
        return np.array(
            [
                series.covariate("caution_laps")[origin],
                series.covariate("pit_age")[origin],
                series.covariate("track_status")[origin],
                series.rank[origin],
                series.covariate("total_pit_count")[origin],
            ],
            dtype=np.float64,
        )

    def predict_distribution(self, features: np.ndarray):
        """Gaussian parameters of laps-to-next-pit for raw feature rows."""
        if not self.fitted_:
            raise RuntimeError("PitModel must be fit before predicting")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        Xs = (features - self._x_mean) / self._x_std
        # inference only: the head runs cache-free, the trunk caches are dropped
        params = self.net.forward(Xs, with_cache=False)
        for layer in self.net.trunk.layers:
            if hasattr(layer, "_cache"):
                layer._cache.clear()
        return params

    def sample_laps_to_pit(
        self, features: np.ndarray, n_samples: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Integer samples of laps until the next stop, clipped to ``[1, max_horizon]``."""
        rng = rng or self.rng
        params = self.predict_distribution(features)
        draws = params.mu[None, :] + params.sigma[None, :] * rng.standard_normal(
            (n_samples, params.mu.shape[0])
        )
        return np.clip(np.rint(draws), 1, self.max_horizon).astype(np.int64)

    def expected_laps_to_pit(self, series: CarFeatureSeries, origin: int) -> float:
        params = self.predict_distribution(self._features_at(series, origin))
        return float(params.mu[0])

    # ------------------------------------------------------------------
    def plan_covariates(
        self,
        series: CarFeatureSeries,
        origin: int,
        horizon: int,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Sample one future covariate plan of shape ``(horizon, len(ALL_COVARIATES))``."""
        rng = rng or self.rng
        return plan_future_covariates(self, series, origin, horizon, rng)


def plan_future_covariates(
    pit_model: PitModelMLP,
    series: CarFeatureSeries,
    origin: int,
    horizon: int,
    rng: np.random.Generator,
    shift_lag: int = 2,
) -> np.ndarray:
    """Roll the race-status covariates forward using sampled pit stops.

    The first PitModel query is the observed origin lap, with the features
    it was trained on (:meth:`PitModelMLP._features_at`).  TrackStatus is
    assumed green over the horizon (Algorithm 2 of the paper: "set future
    TrackStatus to zero"); LapStatus spikes at the sampled pit laps;
    PitAge/CautionLaps evolve deterministically given the sampled pits;
    the race-level context features are unknown and set to 0.
    """
    plan = np.zeros((horizon, len(ALL_COVARIATES)), dtype=np.float64)
    idx = {name: ALL_COVARIATES.index(name) for name in ALL_COVARIATES}

    # [caution_laps, pit_age, track_status, rank, total_pit_count]
    features = pit_model._features_at(series, origin)
    caution_laps, pit_age, _, rank_now, pit_count = (float(v) for v in features)

    # sample the lap of the next pit, then keep sampling stint lengths
    next_pit_offset = int(pit_model.sample_laps_to_pit(features, 1, rng=rng)[0, 0])
    pit_offsets: List[int] = []
    offset = next_pit_offset
    while offset <= horizon:
        pit_offsets.append(offset)
        # at the stop lap: the car's own stop joins the field's pit count,
        # pit age and caution laps reset, the future track is green
        features = np.array([0.0, 0.0, 0.0, rank_now, pit_count + 1.0])
        stint = int(pit_model.sample_laps_to_pit(features, 1, rng=rng)[0, 0])
        offset += max(stint, 1)

    lap_status = np.zeros(horizon)
    for off in pit_offsets:
        lap_status[off - 1] = 1.0

    age = pit_age
    for h in range(horizon):
        if lap_status[h] > 0.5:
            age = 0.0
        else:
            age += 1.0
        plan[h, idx["lap_status"]] = lap_status[h]
        plan[h, idx["track_status"]] = 0.0
        plan[h, idx["pit_age"]] = age
        plan[h, idx["caution_laps"]] = 0.0 if lap_status[: h + 1].any() else caution_laps
    # shift features describe the planned future status
    for h in range(horizon):
        src = h + shift_lag
        if src < horizon:
            plan[h, idx["shift_lap_status"]] = lap_status[src]
            plan[h, idx["shift_track_status"]] = 0.0
    return plan
