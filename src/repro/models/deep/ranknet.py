"""RankNet, DeepAR and Transformer forecaster wrappers.

This module glues the sequence backbones (:class:`RankSeqModel`,
:class:`TransformerSeqModel`) and the :class:`PitModelMLP` into the common
:class:`repro.models.base.RankForecaster` interface, implementing the three
RankNet variants compared in the paper (Table III):

* **RankNet-Oracle** — the RankModel receives the *true* future race status
  as covariates (upper bound on what the decomposition can achieve);
* **RankNet-MLP** — the proposed model: a separate probabilistic PitModel
  forecasts the future pit stops, and the sampled race-status plan is fed to
  the RankModel (cause-effect decomposition);
* **RankNet-Joint** — no decomposition: rank, LapStatus and TrackStatus are
  modelled jointly as a multivariate target (the ablation that fails due to
  the sparsity of the pit/caution events);

plus the plain **DeepAR** baseline (no race-status covariates at all) and
the Transformer-backboned versions of Oracle / MLP.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...data.features import CarFeatureSeries
from ...data.loader import BatchLoader
from ...data.schema import ALL_COVARIATES, FeatureSpec, covariate_indices
from ...data.windows import make_windows
from ...nn import Adam, Trainer, TrainingHistory
from ...nn.checkpoint import restore_rng, rng_state
from ...nn.precision import DEFAULT_PRECISION, normalize_precision
from ...serving.engine import FleetForecaster
from ...serving.requests import ForecastRequest, fold_forecasts, spawn_request_rngs
from ..base import ProbabilisticForecast, RankForecaster, clip_rank
from .pitmodel import PitModelMLP
from .rankmodel import RankSeqModel
from .transformer import TransformerSeqModel

__all__ = [
    "DeepForecasterBase",
    "DeepARForecaster",
    "RankNetForecaster",
    "TransformerForecaster",
]

#: fine_tune's defaults: a few more epochs at a fraction of the fit learning rate
FINE_TUNE_EPOCHS = 5
FINE_TUNE_LR_SCALE = 0.3


class DeepForecasterBase(RankForecaster):
    """Shared training / forecasting logic of the deep sequence forecasters."""

    supports_uncertainty = True

    def __init__(
        self,
        feature_spec: Optional[FeatureSpec] = None,
        encoder_length: int = 60,
        decoder_length: int = 2,
        hidden_dim: int = 40,
        num_layers: int = 2,
        epochs: int = 15,
        batch_size: int = 64,
        lr: float = 1e-3,
        rank_change_weight: float = 9.0,
        max_train_windows: int = 4000,
        window_stride: int = 1,
        target_dim: int = 1,
        seed: int = 0,
        fleet_mode: str = "exact",
        name: str = "DeepForecaster",
    ) -> None:
        self.feature_spec = feature_spec or FeatureSpec()
        self.encoder_length = int(encoder_length)
        self.decoder_length = int(decoder_length)
        self.hidden_dim = int(hidden_dim)
        self.num_layers = int(num_layers)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.lr = float(lr)
        self.rank_change_weight = float(rank_change_weight)
        self.max_train_windows = int(max_train_windows)
        self.window_stride = int(window_stride)
        self.target_dim = int(target_dim)
        self.seed = int(seed)
        self.fleet_mode = fleet_mode
        self.name = name
        self.rng = np.random.default_rng(seed)
        self.model = None
        self._fleet_engines: Dict[Tuple[str, str], FleetForecaster] = {}
        self.history_: Optional[TrainingHistory] = None
        self.uses_race_status = self.feature_spec.num_covariates > 0
        # the columns _select keeps, computed once per forecaster
        self._covariate_index = list(covariate_indices(self.feature_spec.covariate_names()))

    # ------------------------------------------------------------------
    # model construction (overridden by the Transformer variant)
    # ------------------------------------------------------------------
    def _build_model(self, num_covariates: int):
        return RankSeqModel(
            num_covariates=num_covariates,
            hidden_dim=self.hidden_dim,
            num_layers=self.num_layers,
            target_dim=self.target_dim,
            encoder_length=self.encoder_length,
            decoder_length=self.decoder_length,
            rng=self.rng,
        )

    # ------------------------------------------------------------------
    # dataset assembly
    # ------------------------------------------------------------------
    def _make_batches(self, series_list: Sequence[CarFeatureSeries], shuffle: bool):
        """``(dataset, batches)``: the windows and a zero-argument callable
        returning one epoch's batch stream (what :meth:`Trainer.fit` takes)."""
        dataset = make_windows(
            series_list,
            encoder_length=self.encoder_length,
            decoder_length=self.decoder_length,
            stride=self.window_stride,
            rank_change_loss_weight=self.rank_change_weight,
        )
        if len(dataset) > self.max_train_windows:
            idx = self.rng.choice(len(dataset), size=self.max_train_windows, replace=False)
            dataset = dataset.subset(np.sort(idx))
        loader = BatchLoader(
            dataset,
            batch_size=self.batch_size,
            shuffle=shuffle,
            spec=self.feature_spec,
            rng=self.rng,
        )
        return dataset, loader.batches

    # ------------------------------------------------------------------
    def fit(
        self,
        train_series: Sequence[CarFeatureSeries],
        val_series: Optional[Sequence[CarFeatureSeries]] = None,
    ) -> "DeepForecasterBase":
        self._train(train_series, val_series, epochs=self.epochs)
        return self

    def fine_tune(
        self,
        train_series: Sequence[CarFeatureSeries],
        val_series: Optional[Sequence[CarFeatureSeries]] = None,
        epochs: int = FINE_TUNE_EPOCHS,
        lr: Optional[float] = None,
    ) -> "DeepForecasterBase":
        """Continue training the fitted model on new data (transfer learning).

        The paper lists transfer learning across events as future work; this
        implements the simplest form — warm-starting from the already-trained
        weights and running a few additional epochs at a (typically lower)
        learning rate on the new event's races.
        """
        self._train(train_series, val_series, warm_start=True, epochs=epochs, lr=lr)
        return self

    def _train(
        self,
        train_series: Sequence[CarFeatureSeries],
        val_series: Optional[Sequence[CarFeatureSeries]] = None,
        *,
        epochs: int,
        warm_start: bool = False,
        lr: Optional[float] = None,
        max_epochs: Optional[int] = None,
        **checkpointing,
    ) -> TrainingHistory:
        """The one training sequence behind :meth:`fit`, :meth:`fine_tune`
        and :class:`repro.learning.RetrainJob`.

        ``warm_start`` continues the current weights instead of building a
        fresh backbone (``lr`` then defaults to the fit rate scaled by
        ``FINE_TUNE_LR_SCALE``).  The LR and early-stopping patience are
        sized from the total ``epochs`` budget, so a run capped at
        ``max_epochs`` and its resumed continuation train alike.
        ``checkpointing`` passes through to :class:`Trainer`.  The draws
        from ``self.rng`` (window subsampling, then weight initialisation)
        come in a fixed order, so a resumed job replays them identically.
        Raises ``ValueError``, with the forecaster untouched, when the
        training series yield no window.
        """
        if warm_start and self.model is None:
            raise RuntimeError(f"{self.name} must be fit before fine-tuning")
        train_windows, train_batches = self._make_batches(train_series, shuffle=True)
        if len(train_windows) == 0:
            raise ValueError(
                f"{self.name}: the training series yield no window of "
                f"{self.encoder_length} + {self.decoder_length} laps"
            )
        # carried warm-up states and converted replicas predate the new weights
        self._drop_fleet_engines()
        self.record_field_size(train_series)
        val_batches = None
        if val_series:
            _, val_batches = self._make_batches(val_series, shuffle=False)
        if warm_start:
            lr = self.lr * FINE_TUNE_LR_SCALE if lr is None else lr
            lr_patience = stop_patience = max(int(epochs), 1)
        else:
            self.model = self._build_model(self.feature_spec.num_covariates)
            lr = self.lr if lr is None else lr
            lr_patience, stop_patience = 10, max(int(epochs), 10)
        capped = max_epochs is not None and int(max_epochs) < int(epochs)
        trainer = Trainer(
            self.model,
            optimizer=Adam(self.model.parameters(), lr=lr),
            max_epochs=int(max_epochs) if capped else int(epochs),
            lr_patience=lr_patience,
            early_stopping_patience=stop_patience,
            **checkpointing,
        )
        self.history_ = trainer.fit(train_batches, val_batches)
        # a capped run leaves the auxiliary models to the run that completes it
        if not (warm_start or capped):
            self._post_fit(train_series)
        return self.history_

    def _post_fit(self, train_series: Sequence[CarFeatureSeries]) -> None:
        """Hook for variants that train auxiliary models (e.g. the PitModel)."""

    # ------------------------------------------------------------------
    # artifact protocol
    # ------------------------------------------------------------------
    def _deep_artifact_config(self) -> dict:
        """Constructor arguments shared by all deep forecaster families."""
        return {
            "encoder_length": self.encoder_length,
            "decoder_length": self.decoder_length,
            "hidden_dim": self.hidden_dim,
            "num_layers": self.num_layers,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "lr": self.lr,
            "rank_change_weight": self.rank_change_weight,
            "max_train_windows": self.max_train_windows,
            "window_stride": self.window_stride,
            "target_dim": self.target_dim,
            "seed": self.seed,
            "fleet_mode": self.fleet_mode,
            "name": self.name,
        }

    def _artifact_config(self) -> dict:
        return self._deep_artifact_config()

    def _artifact_state(self):
        if self.model is None:
            raise RuntimeError(f"{self.name} must be fit before creating an artifact")
        arrays = {f"model/{name}": value for name, value in self.model.state_dict().items()}
        return {"rng": rng_state(self.rng)}, arrays

    def _load_artifact_state(self, state, arrays) -> None:
        # building the backbone consumes initialisation draws from self.rng;
        # the stream is restored to its saved position right afterwards, so
        # the first forecast replays the exact continuation of the original
        self.model = self._build_model(self.feature_spec.num_covariates)
        prefix = "model/"
        self.model.load_state_dict(
            {key[len(prefix) :]: value for key, value in arrays.items() if key.startswith(prefix)}
        )
        restore_rng(self.rng, state["rng"])
        self._drop_fleet_engines()
        self.model.eval()

    def _drop_fleet_engines(self) -> None:
        """Forget every fleet engine built on the current weights.

        Engines are bound to one model instance and weight state: a
        low-precision replica is converted when its engine is built, and a
        carry-mode cache holds states computed under the old weights.
        Consumers therefore resolve engines through :meth:`fleet_engine`,
        which builds a fresh one on next use.
        """
        self._fleet_engines = {}

    # ------------------------------------------------------------------
    # forecasting
    # ------------------------------------------------------------------
    def _history_target(self, series: CarFeatureSeries, origin: int) -> np.ndarray:
        start = max(0, origin + 1 - self.encoder_length)
        return series.rank[start : origin + 1]

    def _history_covariates(self, series: CarFeatureSeries, origin: int) -> np.ndarray:
        start = max(0, origin + 1 - self.encoder_length)
        cov = self._select(series.covariates[start : origin + 1])
        return cov

    def _select(self, covariates: np.ndarray) -> np.ndarray:
        if not self._covariate_index:
            return np.zeros(covariates.shape[:-1] + (0,), dtype=np.float64)
        return covariates[..., self._covariate_index]

    def _future_covariates(
        self,
        series: CarFeatureSeries,
        origin: int,
        horizon: int,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Covariates over the horizon; default: unknown in the future -> zeros.

        A variant that samples them (RankNet-MLP's pit plans) draws from
        ``rng``, default the model's own stream.
        """
        return np.zeros((horizon, self.feature_spec.num_covariates), dtype=np.float64)

    def _plans_per_forecast(self) -> int:
        """Sampled future-covariate plans one forecast averages over."""
        return 1

    def _forecast_requests(
        self,
        series: CarFeatureSeries,
        origin: int,
        horizon: int,
        n_samples: int,
        rng,
        key: Optional[tuple] = None,
    ) -> List[ForecastRequest]:
        """The engine requests of one forecast (fold their results with
        :func:`~repro.serving.requests.fold_forecasts`), under one rule:
        the sampled covariate plans draw from ``rng`` (Generator or int
        seed); with one plan ``rng`` also drives the samples, with k > 1
        each plan gets ``max(n_samples // k, 1)``, plan j's drawn from the
        j-th child of ``rng.spawn(k)``."""
        rng = np.random.default_rng(rng)
        plans = self._plans_per_forecast()
        futures = [self._future_covariates(series, origin, horizon, rng=rng) for _ in range(plans)]
        streams = [rng] if plans == 1 else rng.spawn(plans)
        per_plan = n_samples if plans == 1 else max(n_samples // plans, 1)
        return [
            self._fleet_request(series, origin, future, per_plan, stream, key)
            for future, stream in zip(futures, streams)
        ]

    def forecast(
        self,
        series: CarFeatureSeries,
        origin: int,
        horizon: int,
        n_samples: int = 100,
    ) -> ProbabilisticForecast:
        if self.model is None:
            raise RuntimeError(f"{self.name} must be fit before forecasting")
        if origin < 1 or origin >= len(series):
            raise IndexError(f"origin {origin} out of range")
        # exact whatever fleet_mode says, and on the forecaster's own stream
        # (forecast_fleet spawns children), so consecutive calls continue it
        requests = self._forecast_requests(series, origin, horizon, n_samples, self.rng)
        samples = clip_rank(fold_forecasts([requests], self.fleet_engine("exact").submit(requests))[0])
        return ProbabilisticForecast(
            samples=samples, origin=origin, race_id=series.race_id, car_id=series.car_id
        )

    def _target_history_matrix(
        self, series: CarFeatureSeries, origin: int, history_target: np.ndarray
    ) -> np.ndarray:
        """Univariate by default; the Joint variant overrides this."""
        return history_target

    # ------------------------------------------------------------------
    # fleet-batched forecasting
    # ------------------------------------------------------------------
    def fleet_engine(
        self, mode: Optional[str] = None, precision: Optional[str] = None
    ) -> FleetForecaster:
        """The batch scheduler all fleet forecasts of this model go through.

        One engine is kept per ``(mode, precision)`` replica and bound to
        the current ``self.model``: re-fitting and :meth:`fine_tune` drop
        them (a fresh engine is built on next use), so consumers should
        resolve the engine through this method on every use instead of
        holding on to the returned instance across re-training.
        Low-precision replicas convert the weights when their engine is
        built (see :mod:`repro.nn.precision`); the float64 replica shares
        the training weights directly.
        """
        if self.model is None:
            raise RuntimeError(f"{self.name} must be fit before forecasting")
        mode = mode if mode is not None else self.fleet_mode
        precision = normalize_precision(precision, default=DEFAULT_PRECISION)
        key = (mode, precision)
        engine = self._fleet_engines.get(key)
        if engine is None:
            engine = FleetForecaster(self.model, mode=mode, precision=precision)
            self._fleet_engines[key] = engine
        return engine

    def _fleet_request(
        self,
        series: CarFeatureSeries,
        origin: int,
        future_covariates: np.ndarray,
        n_samples: int,
        rng: np.random.Generator,
        key: Optional[tuple] = None,
    ) -> ForecastRequest:
        history_target = self._history_target(series, origin)
        return ForecastRequest(
            history_target=self._target_history_matrix(series, origin, history_target),
            history_covariates=self._history_covariates(series, origin),
            future_covariates=future_covariates,
            n_samples=n_samples,
            rng=rng,
            key=key if key is not None else (series.race_id, series.car_id),
            origin=int(origin),
        )

    def forecast_fleet(
        self,
        tasks: Sequence[Tuple[CarFeatureSeries, int, int]],
        n_samples: int = 100,
    ) -> List[ProbabilisticForecast]:
        """Batched forecasting of many ``(series, origin, horizon)`` tasks.

        All tasks are flattened into one submit of the fleet engine: every
        car's Monte-Carlo trajectories advance in a single recurrent batch
        instead of one car at a time.  Each request draws from its own
        spawned RNG stream, so the results do not depend on how the tasks
        are grouped or ordered inside the engine.
        """
        tasks = list(tasks)
        if self.model is None:
            raise RuntimeError(f"{self.name} must be fit before forecasting")
        if not tasks:
            return []
        for series, origin, _ in tasks:
            if origin < 1 or origin >= len(series):
                raise IndexError(f"origin {origin} out of range")
        # the plans of one task share their warm-up (same key + origin)
        groups = [
            self._forecast_requests(series, origin, horizon, n_samples, rng)
            for (series, origin, horizon), rng in zip(tasks, spawn_request_rngs(self.rng, len(tasks)))
        ]
        results = self.fleet_engine().submit([r for group in groups for r in group])
        return [
            ProbabilisticForecast(
                samples=clip_rank(samples),
                origin=int(origin),
                race_id=series.race_id,
                car_id=series.car_id,
            )
            for (series, origin, _), samples in zip(tasks, fold_forecasts(groups, results))
        ]


class DeepARForecaster(DeepForecasterBase):
    """DeepAR baseline: the same backbone with no race-status covariates."""

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("name", "DeepAR")
        super().__init__(
            feature_spec=FeatureSpec(use_race_status=False, use_context=False, use_shift=False),
            **kwargs,
        )
        self.uses_race_status = False


class RankNetForecaster(DeepForecasterBase):
    """RankNet with the LSTM backbone (variants: oracle / mlp / joint)."""

    VARIANTS = ("oracle", "mlp", "joint")

    def __init__(
        self,
        variant: str = "mlp",
        pit_model: Optional[PitModelMLP] = None,
        pit_plans_per_forecast: int = 5,
        feature_spec: Optional[FeatureSpec] = None,
        **kwargs,
    ) -> None:
        if variant not in self.VARIANTS:
            raise ValueError(f"variant must be one of {self.VARIANTS}, got {variant!r}")
        self.variant = variant
        if variant == "joint":
            # joint training models [rank, lap_status, track_status] with no covariates
            feature_spec = FeatureSpec(use_race_status=False, use_context=False, use_shift=False)
            kwargs.setdefault("target_dim", 3)
        else:
            feature_spec = feature_spec or FeatureSpec()
        kwargs.setdefault("name", f"RankNet-{variant.upper() if variant == 'mlp' else variant.capitalize()}")
        super().__init__(feature_spec=feature_spec, **kwargs)
        self.pit_model = pit_model
        self.pit_plans_per_forecast = int(pit_plans_per_forecast)
        self.uses_race_status = True

    # -- joint variant: build the multivariate target from the full covariates
    def _make_batches(self, series_list, shuffle):
        dataset, batches = super()._make_batches(series_list, shuffle)
        if self.variant != "joint":
            return dataset, batches
        # the loader does not expose a batch's rows, so joint batches are cut
        # here: batch_size chunks of an order shuffled from the model's stream
        lap = dataset.covariates[:, :, ALL_COVARIATES.index("lap_status")]
        track = dataset.covariates[:, :, ALL_COVARIATES.index("track_status")]
        cov = dataset.select_covariates(self.feature_spec)

        def joint_batches():
            order = np.arange(len(dataset))
            if shuffle:
                self.rng.shuffle(order)
            for start in range(0, len(dataset), self.batch_size):
                rows = order[start : start + self.batch_size]
                yield {
                    "target": np.stack([dataset.target[rows], lap[rows], track[rows]], axis=-1),
                    "covariates": cov[rows],
                    "car_index": dataset.car_index[rows],
                    "weight": dataset.weight[rows],
                }

        return dataset, joint_batches

    def _post_fit(self, train_series: Sequence[CarFeatureSeries]) -> None:
        if self.variant == "mlp" and self.pit_model is None:
            self.pit_model = PitModelMLP(seed=self.seed)
            self.pit_model.fit(list(train_series))

    # -- artifact protocol: variant + (for MLP) the nested PitModel
    def _artifact_config(self) -> dict:
        return {
            "variant": self.variant,
            "pit_plans_per_forecast": self.pit_plans_per_forecast,
            "feature_spec": asdict(self.feature_spec),
            **self._deep_artifact_config(),
        }

    @classmethod
    def _config_from_artifact(cls, config: dict) -> dict:
        config = dict(config)
        if config.get("feature_spec") is not None:
            config["feature_spec"] = FeatureSpec(**config["feature_spec"])
        return config

    def _artifact_state(self):
        state, arrays = super()._artifact_state()
        if self.pit_model is not None:
            pit_state, pit_arrays = self.pit_model._artifact_state()
            state["pit_model"] = {
                "config": self.pit_model._artifact_config(),
                "state": pit_state,
            }
            arrays.update({f"pit/{key}": value for key, value in pit_arrays.items()})
        return state, arrays

    def _load_artifact_state(self, state, arrays) -> None:
        state = dict(state)
        pit = state.pop("pit_model", None)
        super()._load_artifact_state(state, arrays)
        if pit is not None:
            prefix = "pit/"
            pit_arrays = {
                key[len(prefix) :]: value
                for key, value in arrays.items()
                if key.startswith(prefix)
            }
            self.pit_model = PitModelMLP.from_artifact_parts(
                pit["config"], pit["state"], pit_arrays
            )

    def _target_history_matrix(self, series, origin, history_target):
        if self.variant != "joint":
            return history_target
        start = max(0, origin + 1 - self.encoder_length)
        lap = series.covariate("lap_status")[start : origin + 1]
        track = series.covariate("track_status")[start : origin + 1]
        return np.column_stack([history_target, lap, track])

    def _future_covariates(self, series, origin, horizon, rng=None):
        if self.variant == "joint":
            return np.zeros((horizon, 0), dtype=np.float64)
        if self.variant == "oracle":
            end = min(origin + horizon, len(series) - 1)
            cov = series.covariates[origin + 1 : end + 1]
            if cov.shape[0] < horizon:  # pad when the race ends inside the horizon
                pad = np.zeros((horizon - cov.shape[0], cov.shape[1]))
                cov = np.vstack([cov, pad])
            return self._select(cov)
        # mlp variant: sample a pit-stop plan
        if self.pit_model is None:
            raise RuntimeError("RankNet-MLP requires a fitted PitModel")
        plan = self.pit_model.plan_covariates(
            series, origin, horizon, rng=self.rng if rng is None else rng
        )
        return self._select(plan)

    def _plans_per_forecast(self) -> int:
        # MLP averages over several sampled pit-stop plans, so the PitModel's
        # uncertainty propagates into the rank forecast
        return max(self.pit_plans_per_forecast, 1) if self.variant == "mlp" else 1


class TransformerForecaster(RankNetForecaster):
    """RankNet with a Transformer backbone (oracle or mlp covariate handling)."""

    def __init__(
        self,
        variant: str = "mlp",
        d_model: int = 32,
        num_heads: int = 8,
        d_ff: int = 64,
        num_encoder_layers: int = 2,
        num_decoder_layers: int = 1,
        **kwargs,
    ) -> None:
        if variant == "joint":
            raise ValueError("the Transformer implementation supports 'oracle' and 'mlp' only")
        kwargs.setdefault("name", f"Transformer-{'MLP' if variant == 'mlp' else variant.capitalize()}")
        super().__init__(variant=variant, **kwargs)
        self.d_model = int(d_model)
        self.num_heads = int(num_heads)
        self.d_ff = int(d_ff)
        self.num_encoder_layers = int(num_encoder_layers)
        self.num_decoder_layers = int(num_decoder_layers)

    def _artifact_config(self) -> dict:
        return {
            "d_model": self.d_model,
            "num_heads": self.num_heads,
            "d_ff": self.d_ff,
            "num_encoder_layers": self.num_encoder_layers,
            "num_decoder_layers": self.num_decoder_layers,
            **super()._artifact_config(),
        }

    def _build_model(self, num_covariates: int):
        return TransformerSeqModel(
            num_covariates=num_covariates,
            d_model=self.d_model,
            num_heads=self.num_heads,
            d_ff=self.d_ff,
            num_encoder_layers=self.num_encoder_layers,
            num_decoder_layers=self.num_decoder_layers,
            target_dim=self.target_dim,
            encoder_length=self.encoder_length,
            decoder_length=self.decoder_length,
            rng=self.rng,
        )
