"""Shadow evaluation: deterministic scoring, seed derivation, guards."""

import pytest

from repro.artifacts import ArtifactStore
from repro.learning import ShadowEvaluator
from repro.learning.shadow import ShadowReport, derive_task_seed
from repro.models import DeepARForecaster, RankNetForecaster

TINY = dict(
    encoder_length=12,
    decoder_length=2,
    hidden_dim=8,
    num_layers=1,
    epochs=1,
    batch_size=32,
    max_train_windows=120,
)


@pytest.fixture(scope="module")
def shadow_store(tmp_path_factory, window):
    store = ArtifactStore(str(tmp_path_factory.mktemp("shadow-store")))
    series = window.train_series()
    store.save_model("champ", DeepARForecaster(seed=5, **TINY).fit(series))
    store.save_model("cand", DeepARForecaster(seed=6, **TINY).fit(series))
    store.set_alias("champion", "champ")
    return store


def test_task_seeds_are_stable_and_order_independent():
    seed = derive_task_seed(7, "Indy500-2019", 3, 20)
    assert seed == derive_task_seed(7, "Indy500-2019", 3, 20)
    assert seed != derive_task_seed(7, "Indy500-2019", 3, 21)
    assert seed != derive_task_seed(7, "Indy500-2019", 4, 20)
    assert seed != derive_task_seed(8, "Indy500-2019", 3, 20)


def test_shadow_report_is_deterministic(shadow_store, window):
    races = window.holdout_races()
    first = ShadowEvaluator(shadow_store, n_samples=10, stride=8).evaluate(
        "cand", "champ", races, seed=7
    )
    second = ShadowEvaluator(shadow_store, n_samples=10, stride=8).evaluate(
        "cand", "champ", races, seed=7
    )
    assert first.to_doc() == second.to_doc()
    assert first.tasks > 0
    assert first.races == [races[0].race_id]
    assert set(first.scores["cand"]) == {"mae", "top1", "sign"}
    assert set(first.deltas) == {"mae", "top1", "sign"}


def test_a_joint_candidate_is_scored(shadow_store, window):
    # Joint models forecast [rank, lap_status, track_status]: their requests
    # need the multivariate history the model shapes itself
    joint = RankNetForecaster(variant="joint", seed=7, **TINY).fit(window.train_series())
    shadow_store.save_model("joint-cand", joint)
    report = ShadowEvaluator(shadow_store, n_samples=10, stride=8).evaluate(
        "joint-cand", "champ", window.holdout_races(), seed=7
    )
    assert report.tasks > 0
    assert set(report.scores["joint-cand"]) == {"mae", "top1", "sign"}


def test_candidate_and_champion_must_be_distinct_artifacts(shadow_store, window):
    # "champion" is an alias of "champ": the service resolves both names to
    # the same artifact, which shadow evaluation refuses to compare
    with pytest.raises(ValueError, match="distinct"):
        ShadowEvaluator(shadow_store).evaluate(
            "champion", "champ", window.holdout_races(), seed=0
        )


def test_no_forecastable_origins_is_an_error(shadow_store, window):
    evaluator = ShadowEvaluator(shadow_store, min_history=10_000)
    with pytest.raises(ValueError, match="no forecastable origins"):
        evaluator.evaluate("cand", "champ", window.holdout_races(), seed=0)


def test_recommendation_rules():
    def report(mae_c, mae_k, top1_c=0.5, top1_k=0.5, sign_c=0.5, sign_k=0.5):
        return ShadowReport(
            candidate="cand",
            champion="champ",
            seed=0,
            races=["r"],
            tasks=1,
            scores={
                "cand": {"mae": mae_c, "top1": top1_c, "sign": sign_c},
                "champ": {"mae": mae_k, "top1": top1_k, "sign": sign_k},
            },
        )

    assert report(1.0, 2.0).recommend is True  # lower MAE wins
    assert report(2.0, 1.0).recommend is False  # higher MAE loses
    assert report(1.0, 1.0).recommend is True  # tie, no regression elsewhere
    assert report(1.0, 1.0, top1_c=0.4).recommend is False  # tie, top1 regressed
    nan, inf = float("nan"), float("inf")
    assert report(nan, 1.0).recommend is False  # NaN MAE: no tie-break
    assert report(1.0, nan).recommend is False
    assert report(1.0, 2.0, top1_c=nan).recommend is False
    assert report(1.0, 2.0, sign_k=nan).recommend is False
    assert report(1.0, inf).recommend is False
    assert report(-inf, 1.0).recommend is False
    assert report(nan, nan).to_doc()["recommend"] is False


def test_the_report_says_why_it_does_not_recommend():
    def report(cand, champ):
        return ShadowReport(
            candidate="cand", champion="champ", seed=0, races=["r"], tasks=1,
            scores={"cand": cand, "champ": champ},
        )

    scores = {"mae": 1.0, "top1": 0.5, "sign": 0.5}
    doc = report({**scores, "mae": float("nan")}, scores).to_doc()
    assert (doc["recommend"], doc["reason"]) == (False, "non-finite delta in mae")
    doc = report({**scores, "top1": float("inf")}, {**scores, "mae": 2.0}).to_doc()
    assert (doc["recommend"], doc["reason"]) == (False, "non-finite delta in top1")
    assert report({**scores, "mae": 2.0}, scores).reason == "MAE regressed"
    assert report(scores, {**scores, "mae": 2.0}).reason == "MAE improved"
    tied = report({**scores, "sign": 0.4}, scores)
    assert (tied.recommend, tied.reason) == (False, "MAE tied, sign regressed")
