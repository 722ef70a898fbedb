"""Tests for the deep sequence models (RankSeqModel, PitModel, RankNet, Transformer)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.data import ALL_COVARIATES, build_race_features, make_windows
from repro.data.loader import BatchLoader
from repro.models import (
    DeepARForecaster,
    PitModelMLP,
    RankNetForecaster,
    RankSeqModel,
    TransformerForecaster,
    TransformerSeqModel,
    plan_future_covariates,
)
from repro.models.base import clip_rank
from repro.nn import NonFiniteLossError
from repro.nn.checkpoint import rng_from_state, rng_state
from repro.nn.gradcheck import numerical_gradient, relative_error
from repro.serving import FleetForecaster, ForecastRequest
from repro.simulation import RaceSimulator, track_for_year


@pytest.fixture(scope="module")
def tiny_series():
    track = replace(track_for_year("Indy500", 2018), total_laps=90, num_cars=12)
    race = RaceSimulator(track, event="Indy500", year=2017, seed=11).run()
    return build_race_features(race)


@pytest.fixture(scope="module")
def tiny_batch(tiny_series):
    ds = make_windows(tiny_series[:6], encoder_length=12, decoder_length=2,
                      rank_change_loss_weight=9.0)
    loader = BatchLoader(ds, batch_size=16, shuffle=True, rng=0)
    return next(iter(loader))


# ----------------------------------------------------------------------
# RankSeqModel (LSTM backbone)
# ----------------------------------------------------------------------
def test_rankseq_loss_and_backward_produces_gradients(tiny_batch):
    model = RankSeqModel(num_covariates=9, hidden_dim=8, num_layers=2,
                         encoder_length=12, decoder_length=2, rng=0)
    model.zero_grad()
    loss = model.loss_and_backward(tiny_batch)
    assert np.isfinite(loss)
    grad_norms = [np.abs(p.grad).max() for p in model.parameters()]
    assert max(grad_norms) > 0.0


def test_rankseq_validation_loss_matches_training_loss_value(tiny_batch):
    model = RankSeqModel(num_covariates=9, hidden_dim=8, encoder_length=12,
                         decoder_length=2, rng=0)
    model.eval()
    loss_a = model.validation_loss(tiny_batch)
    model.zero_grad()
    loss_b = model.loss_and_backward(tiny_batch)
    assert loss_a == pytest.approx(loss_b, rel=1e-10)


def test_rankseq_parameter_gradient_matches_numeric():
    """End-to-end gradient check through heads + stacked LSTM BPTT."""
    rng = np.random.default_rng(0)
    batch = {
        "target": rng.uniform(1, 10, size=(3, 8)),
        "covariates": rng.normal(size=(3, 8, 2)),
        "weight": np.array([1.0, 9.0, 1.0]),
    }
    model = RankSeqModel(num_covariates=2, hidden_dim=4, num_layers=2,
                         encoder_length=6, decoder_length=2, rng=1)
    model.eval()
    model.zero_grad()
    model.loss_and_backward(batch)
    checked = 0
    for param in [model.lstm.cells[0].w_x, model.lstm.cells[1].w_h, model.head.weight]:
        analytic = param.grad.copy()
        numeric = numerical_gradient(lambda: model.validation_loss(batch), param.data)
        assert relative_error(analytic, numeric) < 1e-4
        checked += 1
    assert checked == 3


def test_rankseq_training_reduces_loss(tiny_series):
    ds = make_windows(tiny_series[:6], encoder_length=12, decoder_length=2)
    loader = BatchLoader(ds, batch_size=32, shuffle=True, rng=0)
    model = RankSeqModel(num_covariates=9, hidden_dim=12, encoder_length=12,
                         decoder_length=2, rng=0)
    from repro.nn import Adam, clip_grad_norm

    opt = Adam(model.parameters(), lr=5e-3)
    losses = []
    for epoch in range(4):
        epoch_losses = []
        for batch in loader:
            model.zero_grad()
            epoch_losses.append(model.loss_and_backward(batch))
            clip_grad_norm(opt.parameters, 10.0)
            opt.step()
        losses.append(np.mean(epoch_losses))
    assert losses[-1] < losses[0]


def test_rankseq_forecast_samples_shape_and_scale(tiny_series):
    model = RankSeqModel(num_covariates=9, hidden_dim=8, encoder_length=12,
                         decoder_length=2, rng=0)
    s = tiny_series[0]
    hist_t = s.rank[:20]
    hist_c = s.covariates[:20]
    future_c = s.covariates[20:26]
    request = ForecastRequest(hist_t, hist_c, future_c, n_samples=30)
    samples = FleetForecaster(model).submit([request])[0]
    assert samples.shape == (30, 6)
    assert np.all(np.isfinite(samples))


def test_rankseq_multivariate_target_dim(tiny_batch):
    target = np.stack([tiny_batch["target"]] * 3, axis=-1)
    batch = {**tiny_batch, "target": target,
             "covariates": np.zeros(tiny_batch["covariates"].shape[:2] + (0,))}
    model = RankSeqModel(num_covariates=0, hidden_dim=8, target_dim=3,
                         encoder_length=12, decoder_length=2, rng=0)
    model.zero_grad()
    loss = model.loss_and_backward(batch)
    assert np.isfinite(loss)
    request = ForecastRequest(
        np.tile(tiny_batch["target"][0][:12, None], (1, 3)),
        np.zeros((12, 0)), np.zeros((3, 0)), n_samples=5,
    )
    samples = FleetForecaster(model).submit([request])[0]
    assert samples.shape == (5, 3)


def test_rankseq_rejects_bad_shapes(tiny_batch):
    model = RankSeqModel(num_covariates=9, hidden_dim=8, encoder_length=12,
                         decoder_length=2, rng=0)
    bad = {**tiny_batch, "covariates": tiny_batch["covariates"][:, :, :3]}
    with pytest.raises(ValueError):
        model.loss_and_backward(bad)
    with pytest.raises(ValueError):
        RankSeqModel(num_covariates=1, target_dim=0)


# ----------------------------------------------------------------------
# PitModel
# ----------------------------------------------------------------------
def test_pitmodel_fit_and_sample(tiny_series):
    pit = PitModelMLP(hidden=(16,), epochs=10, seed=0)
    pit.fit(tiny_series[:8])
    assert pit.fitted_
    assert pit.training_loss_[-1] <= pit.training_loss_[0] + 1e-6
    s = tiny_series[0]
    draws = pit.sample_laps_to_pit(pit._features_at(s, 20), n_samples=50)
    assert draws.shape == (50, 1)
    assert np.all(draws >= 1) and np.all(draws <= pit.max_horizon)


def test_pitmodel_requires_fit_before_predicting(tiny_series):
    pit = PitModelMLP()
    with pytest.raises(RuntimeError):
        pit.predict_distribution(np.zeros(5))


def test_pitmodel_expected_pit_sooner_for_older_tires(tiny_series):
    pit = PitModelMLP(hidden=(16,), epochs=25, seed=0)
    pit.fit(tiny_series)
    fresh = np.array([0.0, 2.0, 0.0, 5.0, 0.0])   # just pitted
    worn = np.array([0.0, 30.0, 0.0, 5.0, 0.0])   # 30 laps into the stint
    mu_fresh = float(pit.predict_distribution(fresh).mu[0])
    mu_worn = float(pit.predict_distribution(worn).mu[0])
    assert mu_worn < mu_fresh


def test_plan_future_covariates_properties(tiny_series):
    pit = PitModelMLP(hidden=(8,), epochs=5, seed=0)
    pit.fit(tiny_series[:6])
    s = tiny_series[0]
    rng = np.random.default_rng(0)
    plan = plan_future_covariates(pit, s, origin=20, horizon=30, rng=rng)
    assert plan.shape == (30, len(ALL_COVARIATES))
    track_col = ALL_COVARIATES.index("track_status")
    lap_col = ALL_COVARIATES.index("lap_status")
    age_col = ALL_COVARIATES.index("pit_age")
    # Algorithm 2: future TrackStatus assumed green
    np.testing.assert_allclose(plan[:, track_col], 0.0)
    assert set(np.unique(plan[:, lap_col])) <= {0.0, 1.0}
    # pit age resets to zero right after each planned stop
    pits = np.where(plan[:, lap_col] > 0.5)[0]
    for p in pits:
        assert plan[p, age_col] == 0.0


def test_plan_queries_the_pitmodel_with_the_observed_origin_lap(tiny_series, monkeypatch):
    # the origin lap is observed: its caution, track status and pit count
    # are the features the PitModel was trained on, not zeros
    pit = PitModelMLP(hidden=(8,), epochs=2, seed=0)
    pit.fit(tiny_series[:6])
    queries = []
    sample = pit.sample_laps_to_pit

    def spy(features, n_samples, rng=None):
        queries.append(np.array(features, dtype=np.float64))
        return sample(features, n_samples, rng=rng)

    monkeypatch.setattr(pit, "sample_laps_to_pit", spy)
    # an origin lap under caution, with two cars of the field pitting
    origin = 30
    covariates = tiny_series[0].covariates.copy()
    for name, value in (("track_status", 1.0), ("caution_laps", 3.0), ("total_pit_count", 2.0)):
        covariates[origin, ALL_COVARIATES.index(name)] = value
    s = replace(tiny_series[0], covariates=covariates)
    plan_future_covariates(pit, s, origin=origin, horizon=40, rng=np.random.default_rng(1))
    assert len(queries) > 1  # the 40-lap horizon holds a sampled stop
    np.testing.assert_array_equal(queries[0], pit._features_at(s, origin))
    # after a sampled stop: the car's own stop joins the lap's pit count,
    # pit age and caution laps reset, the future track is green
    for query in queries[1:]:
        np.testing.assert_array_equal(query, [0.0, 0.0, 0.0, s.rank[origin], 3.0])


# ----------------------------------------------------------------------
# forecaster wrappers (smoke-level, tiny configs)
# ----------------------------------------------------------------------
def _tiny_kwargs():
    return dict(encoder_length=12, decoder_length=2, hidden_dim=8, epochs=2,
                batch_size=32, max_train_windows=150, seed=0)


def test_deepar_forecaster_end_to_end(tiny_series):
    model = DeepARForecaster(**_tiny_kwargs())
    model.fit(tiny_series[:6], val_series=tiny_series[6:8])
    assert model.history_ is not None and model.history_.num_epochs >= 1
    fc = model.forecast(tiny_series[8], origin=30, horizon=2, n_samples=12)
    assert fc.samples.shape == (12, 2)
    assert np.all(fc.samples >= 1.0)
    assert model.feature_spec.num_covariates == 0


@pytest.mark.parametrize("variant", ["oracle", "mlp", "joint"])
def test_ranknet_variants_end_to_end(tiny_series, variant):
    model = RankNetForecaster(variant=variant, **_tiny_kwargs())
    model.fit(tiny_series[:6])
    fc = model.forecast(tiny_series[7], origin=30, horizon=3, n_samples=10)
    assert fc.samples.shape == (10, 3)
    assert np.all(np.isfinite(fc.samples))
    if variant == "mlp":
        assert model.pit_model is not None and model.pit_model.fitted_
    if variant == "joint":
        assert model.model.target_dim == 3


@pytest.mark.parametrize(
    "make",
    [lambda: DeepARForecaster(**_tiny_kwargs()),
     lambda: RankNetForecaster(variant="mlp", **_tiny_kwargs()),
     lambda: TransformerForecaster(**_tiny_kwargs())],
    ids=["deepar", "ranknet-mlp", "transformer"],
)
def test_fit_without_training_windows_raises_before_any_init(tiny_series, make):
    """No series, or series too short for one window, is a ValueError —
    not a "fitted" model of untrained weights and a NaN loss."""
    model = make()
    state = rng_state(model.rng)
    for train in ([], [_short(tiny_series[0], 10)]):
        with pytest.raises(ValueError, match="no window"):
            model.fit(train)
        assert model.model is None and model.history_ is None
        assert model.field_size is None
        assert getattr(model, "pit_model", None) is None
        assert rng_state(model.rng) == state
    with pytest.raises(ValueError, match="no window"):
        model.fit(tiny_series[:6]).fine_tune([_short(tiny_series[0], 10)])


def test_fit_refuses_a_nan_rank_in_the_training_series(tiny_series):
    poisoned = [replace(s, rank=s.rank.copy()) for s in tiny_series[:3]]
    poisoned[1].rank[20] = np.nan
    model = DeepARForecaster(**{**_tiny_kwargs(), "max_train_windows": 4000})
    with pytest.raises(NonFiniteLossError, match="epoch 0"):
        model.fit(poisoned)


def _short(series, laps):
    return replace(series, laps=series.laps[:laps], rank=series.rank[:laps],
                   lap_time=series.lap_time[:laps],
                   time_behind_leader=series.time_behind_leader[:laps],
                   covariates=series.covariates[:laps])


def test_ranknet_invalid_variant():
    with pytest.raises(ValueError):
        RankNetForecaster(variant="magic")


def test_forecast_with_an_empty_horizon_is_a_value_error(tiny_series):
    model = DeepARForecaster(**_tiny_kwargs()).fit(tiny_series[:6])
    with pytest.raises(ValueError, match="horizon"):
        model.forecast(tiny_series[8], origin=30, horizon=0)


def test_ranknet_forecast_requires_fit(tiny_series):
    model = RankNetForecaster(variant="oracle", **_tiny_kwargs())
    with pytest.raises(RuntimeError):
        model.forecast(tiny_series[0], origin=30, horizon=2)


def test_forecast_runs_on_the_forecasters_one_exact_engine(tiny_series):
    model = RankNetForecaster(variant="oracle", **_tiny_kwargs()).fit(tiny_series[:6])
    series, origin, horizon = tiny_series[7], 30, 3
    # the same request on an engine of its own, under a copy of the stream
    stream = rng_from_state(rng_state(model.rng))
    future = model._future_covariates(series, origin, horizon)
    request = model._fleet_request(series, origin, future, 10, stream)
    expected = clip_rank(FleetForecaster(model.model).submit([request])[0])

    fc = model.forecast(series, origin, horizon, n_samples=10)
    assert fc.samples.tobytes() == expected.tobytes()
    # forecast() draws from the forecaster's own stream, not a spawned child
    assert rng_state(model.rng) == rng_state(stream)

    model.forecast_fleet([(series, origin + 1, horizon)], n_samples=10)
    assert list(model._fleet_engines) == [("exact", "float64")]
    assert model.fleet_engine().stats["submits"] == 2


def test_ranknet_oracle_pads_future_covariates_at_race_end(tiny_series):
    model = RankNetForecaster(variant="oracle", **_tiny_kwargs())
    model.fit(tiny_series[:6])
    s = tiny_series[7]
    fc = model.forecast(s, origin=len(s) - 3, horizon=6, n_samples=5)
    assert fc.samples.shape == (5, 6)


# ----------------------------------------------------------------------
# Transformer backbone
# ----------------------------------------------------------------------
def test_transformer_seq_model_loss_and_forecast(tiny_batch):
    model = TransformerSeqModel(num_covariates=9, d_model=16, num_heads=4, d_ff=32,
                                num_encoder_layers=1, num_decoder_layers=1,
                                encoder_length=12, decoder_length=2, rng=0)
    model.zero_grad()
    loss = model.loss_and_backward(tiny_batch)
    assert np.isfinite(loss)
    assert max(np.abs(p.grad).max() for p in model.parameters()) > 0.0
    val = model.validation_loss(tiny_batch)
    assert np.isfinite(val)
    hist_t = tiny_batch["target"][0][:12]
    hist_c = tiny_batch["covariates"][0][:12]
    fut_c = tiny_batch["covariates"][0][12:]
    request = ForecastRequest(hist_t, hist_c, fut_c, n_samples=8)
    samples = FleetForecaster(model).submit([request])[0]
    assert samples.shape == (8, 2)


def test_transformer_training_reduces_loss(tiny_series):
    ds = make_windows(tiny_series[:5], encoder_length=12, decoder_length=2)
    loader = BatchLoader(ds, batch_size=32, shuffle=True, rng=0)
    model = TransformerSeqModel(num_covariates=9, d_model=16, num_heads=4, d_ff=32,
                                num_encoder_layers=1, num_decoder_layers=1,
                                encoder_length=12, decoder_length=2, rng=0)
    from repro.nn import Adam, clip_grad_norm

    opt = Adam(model.parameters(), lr=3e-3)
    losses = []
    for _ in range(3):
        batch_losses = []
        for batch in loader:
            model.zero_grad()
            batch_losses.append(model.loss_and_backward(batch))
            clip_grad_norm(opt.parameters, 10.0)
            opt.step()
        losses.append(np.mean(batch_losses))
    assert losses[-1] < losses[0]


def test_transformer_forecaster_wrapper(tiny_series):
    model = TransformerForecaster(variant="oracle", d_model=16, num_heads=4,
                                  num_encoder_layers=1, **_tiny_kwargs())
    model.fit(tiny_series[:5])
    fc = model.forecast(tiny_series[6], origin=30, horizon=2, n_samples=8)
    assert fc.samples.shape == (8, 2)


def test_transformer_rejects_joint_variant():
    with pytest.raises(ValueError):
        TransformerForecaster(variant="joint")
