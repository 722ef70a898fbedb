"""Shadow evaluation: candidate vs. champion on held-out races.

The :class:`ShadowEvaluator` answers the promotion question: *would the
candidate have forecast the recent races better than the live champion?*
It replays a window's held-out races through **both** models via
:class:`~repro.serving.ForecastService` — the same submit path live
traffic takes, grouped per model into batched engine passes — and scores
three rank-forecast metrics (:mod:`repro.evaluation.metrics`):

* ``mae`` — mean absolute error of the horizon-end rank forecast;
* ``top1`` — accuracy of the forecast race leader per origin;
* ``sign`` — directional accuracy of the forecast rank change.

Determinism contract: every ``(race, car, origin)`` forecast task draws
from an RNG stream derived by hashing the evaluation seed with the task's
identity, and the *same* stream is given to both models for the same task.
The report is therefore a pure function of (candidate artifact, champion
artifact, held-out races, seed) — re-running an evaluation reproduces the
scores exactly, and neither batching nor model order can tip a promotion
decision.  Unlike the byte-identical rollback guarantee, the *scores*
themselves carry the usual error-bounded caveat across precision tiers:
shadow evaluation always runs the float64 reference tier.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..data.features import build_race_features
from ..evaluation.metrics import mae, sign_accuracy, top1_accuracy
from ..serving.requests import NamedForecastRequest, fold_forecasts

__all__ = ["ShadowEvaluator", "ShadowReport", "derive_task_seed"]


def derive_task_seed(base_seed: int, race_id: str, car_id: int, origin: int) -> int:
    """A stable per-task seed: hash of the evaluation seed + task identity.

    Hash-derived (rather than drawn from a shared stream) so the seed of a
    task does not depend on how many tasks preceded it — adding a race to
    the holdout set leaves every other task's draws untouched.
    """
    digest = hashlib.sha256(
        f"{int(base_seed)}|{race_id}|{int(car_id)}|{int(origin)}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class ShadowReport:
    """Scored comparison of one candidate against the live champion."""

    candidate: str
    champion: str
    seed: int
    races: List[str]
    tasks: int
    scores: Dict[str, Dict[str, float]]
    deltas: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.deltas:
            self.deltas = {
                metric: round(
                    self.scores[self.candidate][metric] - self.scores[self.champion][metric],
                    12,
                )
                for metric in self.scores[self.candidate]
            }

    @property
    def recommend(self) -> bool:
        """Promote when the candidate forecasts rank at least as accurately.

        MAE is the deciding metric (lower is better); top1/sign break a
        near-tie in the candidate's favour only when MAE did not regress.
        A non-finite delta (a NaN or infinite score) never recommends.
        """
        return self._decision()[0]

    @property
    def reason(self) -> str:
        """Why :attr:`recommend` is what it is, in a few words."""
        return self._decision()[1]

    def _decision(self) -> Tuple[bool, str]:
        non_finite = [name for name, delta in self.deltas.items() if not math.isfinite(delta)]
        if non_finite:
            return False, f"non-finite delta in {', '.join(non_finite)}"
        if self.deltas["mae"] < 0:
            return True, "MAE improved"
        if self.deltas["mae"] > 0:
            return False, "MAE regressed"
        regressed = [name for name in ("top1", "sign") if self.deltas[name] < 0]
        if regressed:
            return False, f"MAE tied, {' and '.join(regressed)} regressed"
        return True, "MAE tied, top1 and sign did not regress"

    def to_doc(self) -> dict:
        return {
            "kind": "shadow-report",
            "candidate": self.candidate,
            "champion": self.champion,
            "seed": self.seed,
            "races": list(self.races),
            "tasks": self.tasks,
            "scores": {name: dict(values) for name, values in self.scores.items()},
            "deltas": dict(self.deltas),
            "recommend": self.recommend,
            "reason": self.reason,
        }


class ShadowEvaluator:
    """Replays held-out races through candidate and champion and scores both."""

    def __init__(
        self,
        store,
        mode: str = "exact",
        horizon: int = 2,
        n_samples: int = 50,
        min_history: int = 10,
        stride: int = 1,
    ) -> None:
        self.store = store
        self.mode = mode
        self.horizon = int(horizon)
        self.n_samples = int(n_samples)
        self.min_history = int(min_history)
        self.stride = max(int(stride), 1)

    # ------------------------------------------------------------------
    def evaluate(
        self,
        candidate: str,
        champion: str,
        races: Sequence,
        seed: int = 0,
    ) -> ShadowReport:
        """Score ``candidate`` against ``champion`` on ``races``.

        ``races`` are :class:`~repro.simulation.telemetry.RaceTelemetry`
        objects (typically ``window.holdout_races()``).  Both model names
        may be aliases — the service resolves them, so shadow-evaluating
        a challenger against the ``champion`` alias literally is the
        normal call.
        """
        # imported lazily: keeps `import repro.learning` cheap for CLI
        # stages that never touch the serving stack
        from ..serving.service import ForecastService

        service = ForecastService(self.store, capacity=2, mode=self.mode)
        handles = {name: service.load(name) for name in (candidate, champion)}
        if handles[candidate].name == handles[champion].name:
            raise ValueError(
                f"candidate and champion both resolve to {handles[candidate].name!r}; "
                "shadow evaluation needs two distinct artifacts"
            )

        truth_final: List[float] = []
        truth_change: List[float] = []
        predictions: Dict[str, List[float]] = {candidate: [], champion: []}
        pred_leaders: Dict[str, List[int]] = {candidate: [], champion: []}
        true_leaders: List[int] = []
        race_ids: List[str] = []
        tasks = 0

        for race in races:
            race_ids.append(race.race_id)
            series_list = build_race_features(race)
            num_laps = min(len(series) for series in series_list) if series_list else 0
            origins = range(
                self.min_history, num_laps - self.horizon, self.stride
            )
            for origin in origins:
                # one batch per origin, both models' requests interleaved —
                # the service fans them out into one engine pass per model
                groups: List[List[NamedForecastRequest]] = []
                cars: List[int] = []
                for series in series_list:
                    task_seed = derive_task_seed(
                        seed, series.race_id, series.car_id, origin
                    )
                    for model in (candidate, champion):
                        requests = handles[model].forecaster._forecast_requests(
                            series, origin, self.horizon, self.n_samples, task_seed
                        )
                        groups.append(
                            [NamedForecastRequest(model=model, request=r) for r in requests]
                        )
                    cars.append(int(series.car_id))
                results = fold_forecasts(
                    groups, service.submit([named for group in groups for named in group])
                )
                point: Dict[str, List[float]] = {candidate: [], champion: []}
                for index, series in enumerate(series_list):
                    truth_final.append(float(series.rank[origin + self.horizon]))
                    truth_change.append(
                        float(series.rank[origin + self.horizon] - series.rank[origin])
                    )
                    for offset, model in enumerate((candidate, champion)):
                        samples = np.asarray(results[2 * index + offset], dtype=np.float64)
                        final = samples[:, self.horizon - 1]
                        while final.ndim > 1:  # multivariate targets: rank is dim 0
                            final = final[..., 0]
                        value = float(np.median(final))
                        predictions[model].append(value)
                        point[model].append(value)
                    tasks += 1
                true_ranks = [float(s.rank[origin + self.horizon]) for s in series_list]
                true_leaders.append(cars[int(np.argmin(true_ranks))])
                for model in (candidate, champion):
                    pred_leaders[model].append(cars[int(np.argmin(point[model]))])

        if tasks == 0:
            raise ValueError(
                "no forecastable origins in the held-out races; lower "
                "min_history or hold out longer races"
            )

        truth_final_arr = np.asarray(truth_final)
        truth_change_arr = np.asarray(truth_change)
        scores: Dict[str, Dict[str, float]] = {}
        for model in (candidate, champion):
            preds = np.asarray(predictions[model])
            changes = preds - (truth_final_arr - truth_change_arr)
            scores[model] = {
                "mae": round(float(mae(preds, truth_final_arr)), 12),
                "top1": round(
                    float(top1_accuracy(pred_leaders[model], true_leaders)), 12
                ),
                "sign": round(float(sign_accuracy(changes, truth_change_arr)), 12),
            }
        return ShadowReport(
            candidate=candidate,
            champion=champion,
            seed=int(seed),
            races=race_ids,
            tasks=tasks,
            scores=scores,
        )
