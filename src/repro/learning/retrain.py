"""Resumable retraining jobs: a training window in, a candidate artifact out.

A :class:`RetrainJob` is the middle stage of the continuous-learning loop.
It trains through the deep forecasters' own training method — the one
sequence behind ``fit()`` and ``fine_tune()`` (dataset assembly, model
construction, field-size recording, the post-fit hooks) — and adds only
what a job needs: per-epoch trainer checkpoints in the job directory,
``resume=``, the forecaster RNG to checkpoint and an epoch cap
(:mod:`repro.nn.trainer`).  An uninterrupted job therefore saves the same
artifact as ``fit()`` (or ``fine_tune()`` for a ``base=`` job), and a job
killed mid-training resumes **bit-exactly**:

* the deterministic prelude (window subsampling, shuffle-loader setup,
  weight initialisation) replays identically from the family's seed on a
  fresh process;
* the trainer checkpoint then restores weights, ADAM moments, scheduler /
  early-stopping counters and the data-order RNG *in place* — into the
  same generator the batch loader draws from — so the resumed epochs
  consume the exact random stream the uninterrupted run would have.

The finished candidate lands in the :class:`~repro.artifacts.ArtifactStore`
under the job's name with the window's content fingerprint as its
``data_fingerprint`` — so the byte-identity gate is simply comparing the
manifest's ``sha256`` between an interrupted-then-resumed job and an
uninterrupted one.

Job state is journaled to ``<job_dir>/job.json`` (``running`` ->
``interrupted`` -> ``completed``, or ``failed`` with the exception's type
and message when training raises), which is what the CLI's ``--resume``
flag checks before re-entering a job directory.
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional

from ..artifacts import ArtifactStore
from .windows import TelemetryAccumulator, TrainingWindow

__all__ = ["RetrainJob", "make_forecaster", "FAMILY_CHOICES"]

#: CLI-friendly family names -> constructor resolution
FAMILY_CHOICES = (
    "deepar",
    "ranknet-mlp",
    "ranknet-oracle",
    "ranknet-joint",
    "transformer-mlp",
    "transformer-oracle",
)


def make_forecaster(family: str, config: Optional[dict] = None):
    """Instantiate a deep forecaster family from its CLI name.

    ``config`` passes through to the constructor (epochs, hidden_dim,
    seed, ...).  Imported lazily — ``repro.models`` pulls in the serving
    layer at import time.
    """
    from ..models import DeepARForecaster, RankNetForecaster, TransformerForecaster

    config = dict(config or {})
    family = str(family).lower()
    if family == "deepar":
        return DeepARForecaster(**config)
    backbone, _, variant = family.partition("-")
    variant = variant or "mlp"
    if backbone == "ranknet":
        return RankNetForecaster(variant=variant, **config)
    if backbone == "transformer":
        return TransformerForecaster(variant=variant, **config)
    raise ValueError(
        f"unknown forecaster family {family!r}; choices: {', '.join(FAMILY_CHOICES)}"
    )


class RetrainJob:
    """One retraining (or fine-tuning) job over a training window."""

    JOB_STATE_NAME = "job.json"

    def __init__(
        self,
        store: ArtifactStore,
        accumulator: TelemetryAccumulator,
        window_id: str,
        name: str,
        family: str = "deepar",
        config: Optional[dict] = None,
        base: Optional[str] = None,
        job_dir: Optional[str] = None,
        resume: bool = False,
    ) -> None:
        self.store = store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        self.accumulator = (
            accumulator
            if isinstance(accumulator, TelemetryAccumulator)
            else TelemetryAccumulator(accumulator)
        )
        self.window: TrainingWindow = self.accumulator.window(window_id)
        self.name = str(name)
        self.family = str(family)
        self.config = dict(config or {})
        self.base = base
        self.job_dir = job_dir
        self.resume = bool(resume)
        if self.resume and self.job_dir is None:
            raise ValueError("resume=True requires a job_dir holding the checkpoint")

    # ------------------------------------------------------------------
    # job-state journal
    # ------------------------------------------------------------------
    @property
    def state_path(self) -> Optional[str]:
        if self.job_dir is None:
            return None
        return os.path.join(self.job_dir, self.JOB_STATE_NAME)

    def _write_state(self, status: str, **extra) -> None:
        if self.state_path is None:
            return
        os.makedirs(self.job_dir, exist_ok=True)
        document = {
            "status": status,
            "name": self.name,
            "family": self.family,
            "window": self.window.window_id,
            "data_fingerprint": self.window.fingerprint,
            "base": self.base,
            "config": self.config,
            "updated_at": time.time(),
            **extra,
        }
        tmp_path = self.state_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
        os.replace(tmp_path, self.state_path)

    def state(self) -> dict:
        if self.state_path is None or not os.path.exists(self.state_path):
            return {}
        with open(self.state_path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def _build_forecaster(self):
        if self.base is not None:
            # fine-tune mode: warm-start from a registered artifact.  The
            # loaded forecaster's RNG is restored to its saved position, so
            # both an interrupted and an uninterrupted job replay the same
            # prelude draws from the same starting point.
            forecaster = self.store.load_model(self.base)
            leftover = sorted(set(self.config) - {"epochs"})
            if leftover:
                raise ValueError(
                    "only 'epochs' may be configured on a fine-tune job — the "
                    f"base artifact fixes the architecture; got {', '.join(leftover)}"
                )
            return forecaster
        return make_forecaster(self.family, self.config)

    def run(self, stop_after_epochs: Optional[int] = None) -> dict:
        """Train the candidate; returns the job record.

        ``stop_after_epochs`` truncates the epoch loop early — the
        simulated interruption used by the tests and the smoke gate.  A
        truncated job writes no artifact; re-running with ``resume=True``
        (same ``job_dir``) completes it bit-exactly.
        """
        from ..models.deep.ranknet import FINE_TUNE_EPOCHS

        forecaster = self._build_forecaster()
        warm_start = self.base is not None
        if warm_start:
            total_epochs = int(self.config.get("epochs", FINE_TUNE_EPOCHS))
        else:
            total_epochs = int(forecaster.epochs)
        max_epochs = total_epochs
        if stop_after_epochs is not None:
            max_epochs = min(int(stop_after_epochs), total_epochs)
        self._write_state("running", epochs=total_epochs, max_epochs=max_epochs)

        try:
            forecaster._train(
                self.window.train_series(),
                warm_start=warm_start,
                epochs=total_epochs,
                max_epochs=max_epochs,
                checkpoint_dir=self.job_dir,
                resume=self.resume,
                checkpoint_every=1,
                checkpoint_rng=forecaster.rng,
            )
        except Exception as exc:
            # a dead job must not read as one still in progress
            self._write_state(
                "failed",
                epochs=total_epochs,
                max_epochs=max_epochs,
                error={"type": type(exc).__name__, "message": str(exc)},
            )
            raise

        if max_epochs < total_epochs:
            record = {
                "status": "interrupted",
                "name": self.name,
                "window": self.window.window_id,
                "epochs_completed": max_epochs,
                "epochs_total": total_epochs,
            }
            self._write_state("interrupted", epochs=total_epochs, max_epochs=max_epochs)
            return record

        entry = self.store.save_model(
            self.name, forecaster, data_fingerprint=self.window.fingerprint
        )
        record = {
            "status": "completed",
            "name": self.name,
            "window": self.window.window_id,
            "data_fingerprint": self.window.fingerprint,
            "sha256": entry["sha256"],
            "epochs_total": total_epochs,
        }
        self._write_state("completed", sha256=entry["sha256"], epochs=total_epochs)
        return record
