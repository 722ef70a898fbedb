"""Shared plumbing for the experiment modules.

Provides cached access to the simulated dataset, the per-car feature
series, and a model zoo builder so that the per-table experiment modules
stay small.  Caches are keyed by the experiment configuration so a single
process (e.g. one ``pytest benchmarks/`` run) generates each race and
trains each model at most once.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..artifacts import ArtifactStore, fingerprint_series
from ..data.features import CarFeatureSeries, build_race_features
from ..models import (
    ArimaForecaster,
    CurRankForecaster,
    DeepARForecaster,
    RandomForestForecaster,
    RankForecaster,
    RankNetForecaster,
    SVRForecaster,
    TransformerForecaster,
    XGBoostForecaster,
)
from ..simulation import DatasetSplit, RacingDataset, generate_dataset
from ..simulation.telemetry import RaceTelemetry
from .config import ExperimentConfig

__all__ = [
    "get_dataset",
    "get_features",
    "split_features",
    "build_model",
    "MODEL_BUILDERS",
    "train_model",
    "clear_caches",
]

_DATASET_CACHE: Dict[Tuple, RacingDataset] = {}
_FEATURE_CACHE: Dict[Tuple, List[CarFeatureSeries]] = {}
_MODEL_CACHE: Dict[str, RankForecaster] = {}


def clear_caches() -> None:
    """Drop all cached datasets/features/models (mainly for tests)."""
    _DATASET_CACHE.clear()
    _FEATURE_CACHE.clear()
    _MODEL_CACHE.clear()


def _dataset_key(config: ExperimentConfig) -> Tuple:
    years = None
    if config.years_per_event is not None:
        years = tuple(sorted((k, tuple(v)) for k, v in config.years_per_event.items()))
    return (config.base_seed, tuple(config.events), years)


def get_dataset(config: ExperimentConfig) -> RacingDataset:
    key = _dataset_key(config)
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = generate_dataset(
            events=list(config.events),
            base_seed=config.base_seed,
            years_per_event={k: list(v) for k, v in config.years_per_event.items()}
            if config.years_per_event
            else None,
        )
    return _DATASET_CACHE[key]


def get_features(race: RaceTelemetry, decoder_length: int = 2) -> List[CarFeatureSeries]:
    key = (race.race_id, race.num_laps, len(race), decoder_length)
    if key not in _FEATURE_CACHE:
        _FEATURE_CACHE[key] = build_race_features(race, shift_lag=decoder_length)
    return _FEATURE_CACHE[key]


def split_features(
    split: DatasetSplit, config: ExperimentConfig
) -> Tuple[List[CarFeatureSeries], List[CarFeatureSeries], List[CarFeatureSeries]]:
    """(train, validation, test) feature series for one event split."""
    train = [s for race in split.train for s in get_features(race, config.decoder_length)]
    val = [s for race in split.validation for s in get_features(race, config.decoder_length)]
    test = [s for race in split.test for s in get_features(race, config.decoder_length)]
    return train, val, test


# ----------------------------------------------------------------------
# model zoo
# ----------------------------------------------------------------------
def _deep_kwargs(config: ExperimentConfig) -> dict:
    return dict(
        encoder_length=config.encoder_length,
        decoder_length=config.decoder_length,
        hidden_dim=config.hidden_dim,
        num_layers=config.num_layers,
        epochs=config.epochs,
        batch_size=config.batch_size,
        lr=config.learning_rate,
        rank_change_weight=config.rank_change_weight,
        max_train_windows=config.max_train_windows,
        seed=config.seed,
    )


def _ml_kwargs(config: ExperimentConfig) -> dict:
    return dict(
        origin_stride=config.ml_origin_stride,
        max_instances=config.ml_max_instances,
    )


MODEL_BUILDERS: Dict[str, Callable[[ExperimentConfig], RankForecaster]] = {
    "CurRank": lambda cfg: CurRankForecaster(),
    "ARIMA": lambda cfg: ArimaForecaster(seed=cfg.seed),
    "RandomForest": lambda cfg: RandomForestForecaster(
        n_estimators=cfg.rf_estimators, seed=cfg.seed, **_ml_kwargs(cfg)
    ),
    "SVM": lambda cfg: SVRForecaster(seed=cfg.seed, **_ml_kwargs(cfg)),
    "XGBoost": lambda cfg: XGBoostForecaster(
        n_estimators=cfg.gbm_estimators, seed=cfg.seed, **_ml_kwargs(cfg)
    ),
    "DeepAR": lambda cfg: DeepARForecaster(**_deep_kwargs(cfg)),
    "RankNet-Joint": lambda cfg: RankNetForecaster(variant="joint", **_deep_kwargs(cfg)),
    "RankNet-MLP": lambda cfg: RankNetForecaster(variant="mlp", **_deep_kwargs(cfg)),
    "RankNet-Oracle": lambda cfg: RankNetForecaster(variant="oracle", **_deep_kwargs(cfg)),
    "Transformer-MLP": lambda cfg: TransformerForecaster(
        variant="mlp", num_encoder_layers=1, **_deep_kwargs(cfg)
    ),
    "Transformer-Oracle": lambda cfg: TransformerForecaster(
        variant="oracle", num_encoder_layers=1, **_deep_kwargs(cfg)
    ),
}

#: the models reported in Table V / VI, in row order
TABLE5_MODELS = [
    "CurRank",
    "ARIMA",
    "RandomForest",
    "SVM",
    "XGBoost",
    "DeepAR",
    "RankNet-Joint",
    "RankNet-MLP",
    "RankNet-Oracle",
]


def build_model(name: str, config: ExperimentConfig) -> RankForecaster:
    try:
        return MODEL_BUILDERS[name](config)
    except KeyError as exc:
        raise KeyError(f"unknown model {name!r}; known: {sorted(MODEL_BUILDERS)}") from exc


def _artifact_name(
    model: RankForecaster, fingerprint: str, cache_tag: str
) -> str:
    """Store key for a fitted model: family + config hash + data fingerprint."""
    name = ArtifactStore.key_for(type(model).__name__, model._artifact_config(), fingerprint)
    if cache_tag:
        name = f"{name}-{re.sub(r'[^A-Za-z0-9._-]', '-', cache_tag)}"
    return name


def train_model(
    name: str,
    config: ExperimentConfig,
    train_series: Sequence[CarFeatureSeries],
    val_series: Optional[Sequence[CarFeatureSeries]] = None,
    cache_tag: str = "",
) -> RankForecaster:
    """Build and fit a model, caching the fitted instance per artifact name.

    Both caches key on one name: model family, constructor-config hash,
    training-data fingerprint and ``cache_tag``.  The in-process cache
    returns the same fitted instance for a repeated call; with
    ``config.artifacts_dir`` set, the fitted model is also registered in
    an on-disk :class:`~repro.artifacts.ArtifactStore` under that name, so
    experiments sharing a fitted model — across processes, or across
    ``runner`` invocations — load the artifact instead of refitting.
    """
    model = build_model(name, config)
    fingerprint = fingerprint_series(train_series, extra=val_series)
    artifact_name = _artifact_name(model, fingerprint, cache_tag)
    if artifact_name in _MODEL_CACHE:
        return _MODEL_CACHE[artifact_name]
    store = ArtifactStore(config.artifacts_dir) if config.artifacts_dir else None
    if store is not None and artifact_name in store:
        model = store.load_model(artifact_name)
    else:
        model.fit(list(train_series), list(val_series) if val_series else None)
        if store is not None:
            store.save_model(artifact_name, model, data_fingerprint=fingerprint)
    _MODEL_CACHE[artifact_name] = model
    return model
