"""Retraining jobs: state journal, guards, and kill+resume bit-exactness."""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.artifacts import ArtifactNotFoundError, ArtifactStore
from repro.learning import RetrainJob, TrainingWindow
from repro.learning.retrain import make_forecaster
from repro.nn import NonFiniteLossError

TINY = {
    "encoder_length": 12,
    "decoder_length": 2,
    "hidden_dim": 8,
    "num_layers": 1,
    "epochs": 2,
    "batch_size": 32,
    "max_train_windows": 120,
    "seed": 6,
}


def test_make_forecaster_resolves_cli_family_names():
    assert type(make_forecaster("deepar", TINY)).__name__ == "DeepARForecaster"
    assert make_forecaster("ranknet-oracle", {"seed": 1}).variant == "oracle"
    assert make_forecaster("transformer-mlp", {"seed": 1}).variant == "mlp"
    with pytest.raises(ValueError, match="unknown forecaster family"):
        make_forecaster("prophet")


def test_resume_requires_a_job_dir(tmp_path, accumulator, window):
    with pytest.raises(ValueError, match="job_dir"):
        RetrainJob(
            ArtifactStore(str(tmp_path / "store")),
            accumulator,
            window.window_id,
            "cand",
            resume=True,
        )


def test_interrupted_then_resumed_job_is_bit_exact(tmp_path, accumulator, window):
    """The resume gate: kill after one epoch, resume, compare manifests.

    The interrupted-then-resumed candidate and an uninterrupted one must
    produce byte-identical artifacts — same manifest ``sha256`` — because
    the trainer checkpoint restores weights, optimizer moments and the
    data-order RNG in place.
    """
    store = ArtifactStore(str(tmp_path / "store"))
    job_dir = str(tmp_path / "job-a")

    truncated_job = RetrainJob(
        store, accumulator, window.window_id, "cand-a",
        family="deepar", config=TINY, job_dir=job_dir,
    )
    truncated = truncated_job.run(stop_after_epochs=1)
    assert truncated["status"] == "interrupted"
    assert "sha256" not in truncated
    assert truncated_job.state()["status"] == "interrupted"
    with pytest.raises(ArtifactNotFoundError):
        store.load_model("cand-a")  # a truncated job writes no artifact

    resumed_job = RetrainJob(
        store, accumulator, window.window_id, "cand-a",
        family="deepar", config=TINY, job_dir=job_dir, resume=True,
    )
    resumed = resumed_job.run()
    assert resumed["status"] == "completed"
    assert resumed["data_fingerprint"] == window.fingerprint
    assert resumed_job.state()["status"] == "completed"

    uninterrupted = RetrainJob(
        store, accumulator, window.window_id, "cand-b",
        family="deepar", config=TINY, job_dir=str(tmp_path / "job-b"),
    ).run()
    assert uninterrupted["status"] == "completed"
    assert resumed["sha256"] == uninterrupted["sha256"]

    # the candidate is usable straight from the store, and its provenance
    # points back at the window
    assert store.load_model("cand-a") is not None
    assert store.entry("cand-a")["data_fingerprint"] == window.fingerprint


def test_fine_tune_jobs_only_accept_an_epoch_override(tmp_path, accumulator, window):
    store = ArtifactStore(str(tmp_path / "store"))
    RetrainJob(
        store, accumulator, window.window_id, "base",
        family="deepar", config=TINY, job_dir=str(tmp_path / "job"),
    ).run()
    with pytest.raises(ValueError, match="only 'epochs'"):
        RetrainJob(
            store, accumulator, window.window_id, "tuned",
            base="base", config={"hidden_dim": 4},
        ).run()
    tuned = RetrainJob(
        store, accumulator, window.window_id, "tuned",
        base="base", config={"epochs": 1},
    ).run()
    assert tuned["status"] == "completed"
    assert tuned["sha256"] != store.entry("base")["sha256"]


@pytest.mark.parametrize("family", ["deepar", "ranknet-mlp"])
def test_retrain_job_saves_the_same_artifact_as_fit_and_fine_tune(
    tmp_path, accumulator, window, family
):
    """A job trains exactly as ``fit()`` / ``fine_tune()`` do in-process.

    An uninterrupted job and ``make_forecaster(...).fit(...)`` save the
    same manifest ``sha256``; so do a ``base=`` job with one epoch and
    ``load_model(base).fine_tune(..., epochs=1)``.
    """
    store = ArtifactStore(str(tmp_path / "store"))
    train = window.train_series()
    job = RetrainJob(
        store, accumulator, window.window_id, "job-fit",
        family=family, config=TINY, job_dir=str(tmp_path / "job-fit"),
    ).run()
    fitted = store.save_model(
        "direct-fit",
        make_forecaster(family, TINY).fit(train),
        data_fingerprint=window.fingerprint,
    )
    assert job["sha256"] == fitted["sha256"]

    tuned_job = RetrainJob(
        store, accumulator, window.window_id, "job-tune",
        base="job-fit", config={"epochs": 1},
    ).run()
    tuned = store.save_model(
        "direct-tune",
        store.load_model("job-fit").fine_tune(train, epochs=1),
        data_fingerprint=window.fingerprint,
    )
    assert tuned_job["sha256"] == tuned["sha256"]


def test_job_over_a_window_without_training_windows_writes_no_artifact(
    tmp_path, accumulator, window
):
    """The window's 45-lap races cannot fill one 60 + 2-lap window: the job
    fails with ValueError instead of saving an untrained model."""
    store = ArtifactStore(str(tmp_path / "store"))
    job = RetrainJob(
        store, accumulator, window.window_id, "empty",
        family="deepar", config={**TINY, "encoder_length": 60},
        job_dir=str(tmp_path / "job"),
    )
    with pytest.raises(ValueError, match="no window"):
        job.run()
    with pytest.raises(ArtifactNotFoundError):
        store.load_model("empty")
    assert store.catalog() == []


def test_a_nan_rank_fails_the_job_before_any_checkpoint_or_artifact(
    tmp_path, accumulator, window, monkeypatch
):
    poisoned = [replace(series, rank=series.rank.copy()) for series in window.train_series()]
    poisoned[0].rank[15] = np.nan
    monkeypatch.setattr(TrainingWindow, "train_series", lambda self: poisoned)
    store = ArtifactStore(str(tmp_path / "store"))
    job_dir = str(tmp_path / "job")
    job = RetrainJob(
        store, accumulator, window.window_id, "cand-nan",
        family="deepar", config={**TINY, "max_train_windows": 4000}, job_dir=job_dir,
    )
    with pytest.raises(NonFiniteLossError, match="non-finite loss") as excinfo:
        job.run()
    with pytest.raises(ArtifactNotFoundError):
        store.load_model("cand-nan")
    assert store.catalog() == []
    assert os.listdir(job_dir) == [RetrainJob.JOB_STATE_NAME]  # no trainer checkpoint
    state = job.state()
    assert state["status"] == "failed"
    assert state["error"] == {"type": "NonFiniteLossError", "message": str(excinfo.value)}
