"""Tests for stint extraction, window datasets, scalers and the batch loader."""

import numpy as np
import pytest

from repro.data import (
    BatchLoader,
    FeatureSpec,
    MeanScaler,
    StandardScaler,
    build_race_features,
    extract_stints,
    extract_window,
    make_windows,
    next_pit_targets,
    pit_statistics,
    stint_rank_changes,
)
from repro.data.windows import rank_change_weight
from repro.simulation import TRACKS, simulate_race


@pytest.fixture(scope="module")
def race():
    return simulate_race("Indy500", 2018, seed=33)


@pytest.fixture(scope="module")
def series_list(race):
    return build_race_features(race)


# ----------------------------------------------------------------------
# stints
# ----------------------------------------------------------------------
def test_extract_stints_partitions_the_race(series_list):
    s = series_list[0]
    stints = extract_stints(s)
    assert len(stints) == int(s.is_pit.sum()) or len(stints) == int(s.is_pit.sum()) - 0
    for stint in stints:
        assert stint.length >= 1
        assert s.is_pit[stint.end_index]
        assert stint.end_index - stint.start_index == stint.length
        assert stint.race_id == s.race_id


def test_stint_lengths_bounded_by_fuel_window(series_list):
    window = TRACKS["Indy500"].fuel_window_laps
    for s in series_list:
        for stint in extract_stints(s):
            assert stint.length <= window + 1


def test_stint_rank_change_sign_convention(series_list):
    stints = stint_rank_changes(series_list)
    assert stints
    any_change = [s for s in stints if s.rank_change != 0]
    assert any_change, "expected at least some stints with rank movement"
    example = any_change[0]
    assert example.rank_change == example.rank_at_end - example.rank_at_start


def test_pit_statistics_structure_and_fig4_shape(series_list):
    stats = pit_statistics(series_list)
    for kind in ("normal", "caution"):
        assert set(stats[kind]) == {"stint_lengths", "pit_laps", "rank_changes"}
    normal = stats["normal"]["stint_lengths"]
    caution = stats["caution"]["stint_lengths"]
    assert normal.size > 0 and caution.size > 0
    # Fig. 4(a): no stint exceeds the fuel window; caution stints are more dispersed
    assert normal.max() <= TRACKS["Indy500"].fuel_window_laps + 1
    assert caution.std() >= 0.5 * normal.std()
    # Fig. 4(d): caution pits hurt rank less than normal pits on average
    assert (
        stats["caution"]["rank_changes"].mean()
        <= stats["normal"]["rank_changes"].mean() + 1.0
    )


def test_next_pit_targets_decrease_towards_pit(series_list):
    s = series_list[0]
    instances = next_pit_targets(s)
    assert instances
    targets = np.array([inst["target"] for inst in instances])
    assert targets.min() >= 1.0
    # walking one lap forward reduces the laps-to-pit by one (away from clipping)
    for a, b in zip(instances[:-1], instances[1:]):
        if a["target"] < 60 and b["target"] < 60 and a["target"] > 1:
            assert b["target"] in (a["target"] - 1, a["target"] - 1 + 0)
            break
    for inst in instances[:10]:
        assert inst["features"].shape == (5,)


def test_next_pit_targets_keep_pit_laps_until_the_final_stop(series_list):
    s = next(s for s in series_list if np.flatnonzero(s.is_pit).size >= 2)
    pits = np.flatnonzero(s.is_pit)
    by_lap = {inst["lap_index"]: inst["target"] for inst in next_pit_targets(s, max_horizon=10**6)}
    assert sorted(by_lap) == list(range(pits[-1]))
    for first, following in zip(pits[:-1], pits[1:]):
        assert by_lap[first] == float(following - first)


def test_next_pit_targets_empty_for_car_without_pits(race, series_list):
    s = series_list[0]
    import copy

    no_pit = copy.deepcopy(s)
    no_pit.covariates[:, 1] = 0.0  # lap_status column
    assert next_pit_targets(no_pit) == []


# ----------------------------------------------------------------------
# windows
# ----------------------------------------------------------------------
def test_extract_window_full_history(series_list):
    s = series_list[0]
    enc, dec = 20, 2
    origin = 40
    target, cov = extract_window(s, origin, enc, dec)
    assert target.shape == (enc + dec,)
    assert cov.shape == (enc + dec, 9)
    np.testing.assert_array_equal(target[:enc], s.rank[origin - enc + 1 : origin + 1])
    np.testing.assert_array_equal(target[enc:], s.rank[origin + 1 : origin + 1 + dec])


def test_extract_window_left_padding(series_list):
    s = series_list[0]
    enc, dec = 30, 2
    origin = 10
    target, cov = extract_window(s, origin, enc, dec, pad_value=-1.0)
    pad = enc - (origin + 1)
    np.testing.assert_array_equal(target[:pad], -1.0)
    np.testing.assert_array_equal(cov[:pad], 0.0)
    np.testing.assert_array_equal(target[pad : pad + origin + 1], s.rank[: origin + 1])


def test_extract_window_out_of_range(series_list):
    s = series_list[0]
    with pytest.raises(IndexError):
        extract_window(s, len(s) - 1, 10, 2)


def test_make_windows_counts_and_meta(series_list):
    enc, dec = 30, 2
    ds = make_windows(series_list[:3], encoder_length=enc, decoder_length=dec)
    expected = sum(max(len(s) - dec - enc + 1, 0) for s in series_list[:3])
    assert len(ds) == expected
    assert ds.target.shape == (expected, enc + dec)
    assert ds.covariates.shape == (expected, enc + dec, 9)
    assert len(ds.meta) == expected
    assert ds.total_length == enc + dec


def test_make_windows_weighting_marks_rank_changes(series_list):
    ds = make_windows(series_list[:5], encoder_length=20, decoder_length=2,
                      rank_change_loss_weight=9.0)
    assert set(np.unique(ds.weight)) <= {1.0, 9.0}
    changed = ds.weight == 9.0
    assert changed.any() and (~changed).any()
    # windows marked as changed really do change rank in the decoder span
    anchor = ds.target[:, ds.encoder_length - 1]
    future = ds.target[:, ds.encoder_length :]
    really_changed = np.any(np.abs(future - anchor[:, None]) > 0.5, axis=1)
    np.testing.assert_array_equal(changed, really_changed)


def test_rank_change_weight_helper():
    assert rank_change_weight(5, np.array([5.0, 5.0]), 9.0) == 1.0
    assert rank_change_weight(5, np.array([5.0, 6.0]), 9.0) == 9.0


def test_make_windows_shared_vocabulary(series_list):
    ds_train = make_windows(series_list[:4], encoder_length=20, decoder_length=2)
    ds_test = make_windows(
        series_list[:4], encoder_length=20, decoder_length=2,
        car_vocabulary=ds_train.car_vocabulary,
    )
    assert ds_train.car_vocabulary == ds_test.car_vocabulary
    np.testing.assert_array_equal(np.unique(ds_train.car_index), np.unique(ds_test.car_index))


def test_make_windows_empty_input():
    ds = make_windows([], encoder_length=10, decoder_length=2)
    assert len(ds) == 0
    assert ds.target.shape == (0, 12)


def test_window_dataset_subset_and_select(series_list):
    ds = make_windows(series_list[:3], encoder_length=20, decoder_length=2)
    sub = ds.subset([0, 1, 2, 3])
    assert len(sub) == 4
    assert sub.meta == ds.meta[:4]
    base_cov = ds.select_covariates(FeatureSpec(use_context=False, use_shift=False))
    assert base_cov.shape[-1] == 4
    none_cov = ds.select_covariates(
        FeatureSpec(use_race_status=False, use_context=False, use_shift=False)
    )
    assert none_cov.shape[-1] == 0


# ----------------------------------------------------------------------
# scalers
# ----------------------------------------------------------------------
def test_standard_scaler_round_trip():
    rng = np.random.default_rng(0)
    x = rng.normal(loc=5.0, scale=3.0, size=(100, 4))
    scaler = StandardScaler().fit(x)
    z = scaler.transform(x)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-10)
    np.testing.assert_allclose(scaler.inverse_transform(z), x, atol=1e-10)


def test_standard_scaler_requires_fit():
    with pytest.raises(RuntimeError):
        StandardScaler().transform(np.zeros(3))


def test_standard_scaler_constant_feature_safe():
    x = np.ones((10, 2))
    z = StandardScaler().fit_transform(x)
    assert np.all(np.isfinite(z))


def test_mean_scaler_round_trip():
    scaler = MeanScaler()
    enc = np.array([[10.0, 12.0, 14.0], [2.0, 2.0, 2.0]])
    factors = scaler.scale_factors(enc)
    np.testing.assert_allclose(factors, [13.0, 3.0])
    scaled = scaler.scale(enc, factors)
    np.testing.assert_allclose(scaler.unscale(scaled, factors), enc)


# ----------------------------------------------------------------------
# batch loader
# ----------------------------------------------------------------------
def test_batch_loader_covers_dataset_once(series_list):
    ds = make_windows(series_list[:3], encoder_length=20, decoder_length=2)
    loader = BatchLoader(ds, batch_size=64, shuffle=True, rng=0)
    seen = 0
    for batch in loader:
        seen += batch["target"].shape[0]
        assert batch["covariates"].shape[0] == batch["target"].shape[0]
        assert set(batch) == {"target", "covariates", "car_index", "weight"}
    assert seen == len(ds)
    assert len(loader) == int(np.ceil(len(ds) / 64))


def test_batch_loader_drop_last(series_list):
    ds = make_windows(series_list[:2], encoder_length=20, decoder_length=2)
    loader = BatchLoader(ds, batch_size=32, drop_last=True, rng=0)
    for batch in loader:
        assert batch["target"].shape[0] == 32


def test_batch_loader_feature_spec_subsets_covariates(series_list):
    ds = make_windows(series_list[:2], encoder_length=20, decoder_length=2)
    loader = BatchLoader(ds, batch_size=16, spec=FeatureSpec(use_context=False, use_shift=False), rng=0)
    batch = next(iter(loader))
    assert batch["covariates"].shape[-1] == 4


def test_batch_loader_rejects_bad_batch_size(series_list):
    ds = make_windows(series_list[:1], encoder_length=20, decoder_length=2)
    with pytest.raises(ValueError):
        BatchLoader(ds, batch_size=0)


def test_batch_loader_shuffle_changes_order_but_not_content(series_list):
    ds = make_windows(series_list[:2], encoder_length=20, decoder_length=2)
    a = np.concatenate([b["target"] for b in BatchLoader(ds, 32, shuffle=True, rng=1)])
    b = np.concatenate([b["target"] for b in BatchLoader(ds, 32, shuffle=True, rng=2)])
    assert a.shape == b.shape
    assert not np.array_equal(a, b)
    np.testing.assert_allclose(np.sort(a.sum(axis=1)), np.sort(b.sum(axis=1)))
