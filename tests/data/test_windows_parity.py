"""``make_windows`` (one vectorised pass per series) against the per-window
reference loop in ``tests/reference/windows.py``, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import make_windows
from repro.data.features import CarFeatureSeries
from repro.data.schema import ALL_COVARIATES

from reference.windows import reference_make_windows


def _series(event: str, car_id: int, ranks, rng: np.random.Generator) -> CarFeatureSeries:
    n = len(ranks)
    return CarFeatureSeries(
        race_id=f"{event}-2018",
        event=event,
        year=2018,
        car_id=car_id,
        laps=np.arange(1, n + 1),
        rank=np.asarray(ranks, dtype=np.float64),
        lap_time=np.full(n, 40.0),
        time_behind_leader=np.zeros(n),
        covariates=rng.normal(size=(n, len(ALL_COVARIATES))),
    )


def assert_same_dataset(got, want) -> None:
    for name in ("target", "covariates", "car_index", "weight"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
        assert a.flags.c_contiguous, name
    assert got.meta == want.meta
    assert got.car_vocabulary == want.car_vocabulary
    assert (got.encoder_length, got.decoder_length) == (want.encoder_length, want.decoder_length)


# each car: (event, car id, ranks); ranks run in steps so some decoder
# spans hold the rank and others change it
_car = st.tuples(
    st.sampled_from(["Indy500", "Iowa"]),
    st.integers(1, 4),
    st.lists(st.integers(1, 6).map(float), min_size=0, max_size=40),
)


@settings(max_examples=150, deadline=None)
@given(
    cars=st.lists(_car, min_size=0, max_size=5),
    encoder_length=st.integers(1, 12),
    decoder_length=st.integers(0, 4),
    stride=st.integers(1, 4),
    min_history=st.one_of(st.none(), st.integers(0, 15)),
    weight=st.sampled_from([1.0, 2.5, 9.0]),
    prior_vocabulary=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_make_windows_equals_reference_bytewise(
    cars, encoder_length, decoder_length, stride, min_history, weight, prior_vocabulary, seed
):
    rng = np.random.default_rng(seed)
    series = [_series(event, car_id, ranks, rng) for event, car_id, ranks in cars]
    vocabulary = {("Iowa", 3): 0, ("Texas", 7): 1} if prior_vocabulary else None
    kwargs = dict(
        encoder_length=encoder_length,
        decoder_length=decoder_length,
        stride=stride,
        min_history=min_history,
        rank_change_loss_weight=weight,
    )
    got = make_windows(
        series, car_vocabulary=None if vocabulary is None else dict(vocabulary), **kwargs
    )
    want = reference_make_windows(
        series, car_vocabulary=None if vocabulary is None else dict(vocabulary), **kwargs
    )
    assert_same_dataset(got, want)


def test_short_series_yield_no_windows_but_enter_the_vocabulary():
    rng = np.random.default_rng(0)
    series = [_series("Indy500", 1, [3.0, 4.0], rng), _series("Iowa", 2, [], rng)]
    vocabulary = {("Iowa", 2): 5}
    got = make_windows(series, encoder_length=4, decoder_length=2, car_vocabulary=vocabulary)
    want = reference_make_windows(
        series, encoder_length=4, decoder_length=2, car_vocabulary={("Iowa", 2): 5}
    )
    assert len(got) == 0
    assert got.car_vocabulary is vocabulary
    assert vocabulary == {("Iowa", 2): 5, ("Indy500", 1): 1}  # index = size so far
    assert_same_dataset(got, want)


def test_left_padded_windows_on_a_simulated_race():
    from repro.data import build_race_features
    from repro.simulation import simulate_race

    series = build_race_features(simulate_race("Iowa", 2018, seed=7))
    kwargs = dict(encoder_length=30, decoder_length=2, stride=2, min_history=5,
                  rank_change_loss_weight=9.0)
    got = make_windows(series, **kwargs)
    want = reference_make_windows(series, **kwargs)
    assert len(got) > 0 and np.any(got.target[:, 0] == 0.0)
    assert set(got.weight) == {1.0, 9.0}
    assert_same_dataset(got, want)


def test_make_windows_rejects_an_empty_encoder():
    with pytest.raises(ValueError, match="encoder_length"):
        make_windows([], encoder_length=0)
