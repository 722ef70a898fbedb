"""End-to-end continuous-learning smoke (the CI gate for ``repro-learn``).

One command::

    python -m repro.learning.smoke --dir /tmp/learn-smoke

Every stage runs as a **real subprocess** of the ``repro-learn`` CLI
against scratch on-disk state — the same process boundaries a deployment
has:

1. three tiny races are simulated into a telemetry accumulator and split
   into a training window (one race held out);
2. a champion is retrained on the window; then the **resume gate**: a
   candidate job truncated after one epoch (exit 3, no artifact) and
   resumed from its checkpoint must produce an artifact whose manifest
   ``sha256`` equals an uninterrupted run's — kill + resume is bit-exact;
3. the candidate is shadow-evaluated against the champion twice with the
   same seed — the reports must match exactly (deterministic scoring);
4. ``repro-serve`` is started on the store and the promotion lifecycle
   runs over HTTP: promote the champion under the ``champion`` alias,
   forecast through the alias (byte-identical to addressing the champion
   directly), promote the candidate, then **rollback** — after which the
   aliased forecast must be byte-identical to the pre-promotion baseline,
   and unloading an aliased model must fail with the structured
   ``model_aliased`` error.

Exit status is non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List, Optional

import numpy as np

CHAMPION = "champ"
CANDIDATE_A = "cand-a"
CANDIDATE_B = "cand-b"
ALIAS = "champion"

_TINY = {
    "encoder_length": 12,
    "decoder_length": 2,
    "hidden_dim": 8,
    "num_layers": 1,
    "epochs": 2,
    "batch_size": 32,
    "max_train_windows": 120,
}
_SEEDS = (11, 12, 13)


def _learn(*args: str, expect: int = 0) -> str:
    """Run one ``repro-learn`` stage as a subprocess; returns its stdout."""
    process = subprocess.run(
        [sys.executable, "-m", "repro.learning.cli", *args],
        capture_output=True,
        text=True,
        env=os.environ.copy(),
        timeout=600,
    )
    if process.returncode != expect:
        raise RuntimeError(
            f"repro-learn {' '.join(args[:1])} exited {process.returncode} "
            f"(expected {expect}):\n{process.stdout}\n{process.stderr}"
        )
    return process.stdout


def _config(seed: int) -> str:
    return json.dumps({**_TINY, "seed": seed})


def _named_batch(forecaster, series, model: str) -> List:
    from ..serving.requests import NamedForecastRequest

    return [
        NamedForecastRequest(model, request)
        for i, seed in enumerate(_SEEDS)
        for request in forecaster._forecast_requests(series, 20 + i, 2, 7, seed)
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Continuous-learning loop smoke check")
    parser.add_argument("--dir", required=True, help="scratch directory for all loop state")
    args = parser.parse_args(argv)
    acc = os.path.join(args.dir, "accumulator")
    store = os.path.join(args.dir, "store")
    os.makedirs(store, exist_ok=True)

    # ------------------------------------------------------------------
    # 1. accumulate a tiny window (3 simulated races, last one held out)
    print("accumulating 3 simulated races...", flush=True)
    for seed in (3, 4, 5):
        _learn(
            "simulate", "--accumulator", acc, "--event", "Indy500", "--year", "2019",
            "--seed", str(seed), "--laps", "45", "--cars", "8",
        )
    window_doc = json.loads(_learn("window", "--accumulator", acc, "--json"))
    window = window_doc["window"]
    print(f"OK: window {window} ({len(window_doc['train_races'])} train / "
          f"{len(window_doc['holdout_races'])} holdout races)")

    # ------------------------------------------------------------------
    # 2. retrain the champion, then the kill+resume bit-exactness gate
    common = ("--accumulator", acc, "--window", window, "--store", store,
              "--family", "deepar", "--json")
    print("retraining the champion...", flush=True)
    _learn("retrain", *common, "--name", CHAMPION, "--config", _config(5))

    print("retraining a candidate with a mid-job interruption...", flush=True)
    job_a = os.path.join(args.dir, "job-a")
    _learn(
        "retrain", *common, "--name", CANDIDATE_A, "--config", _config(6),
        "--job-dir", job_a, "--stop-after", "1", expect=3,
    )
    resumed = json.loads(_learn(
        "retrain", *common, "--name", CANDIDATE_A, "--config", _config(6),
        "--job-dir", job_a, "--resume",
    ))
    uninterrupted = json.loads(_learn(
        "retrain", *common, "--name", CANDIDATE_B, "--config", _config(6),
        "--job-dir", os.path.join(args.dir, "job-b"),
    ))
    if resumed["sha256"] != uninterrupted["sha256"]:
        print("FAIL: resumed candidate differs from the uninterrupted run")
        return 1
    print(f"OK: kill+resume is bit-exact (sha256 {resumed['sha256'][:12]}...)")

    # ------------------------------------------------------------------
    # 3. deterministic shadow evaluation
    print("shadow-evaluating candidate vs champion (twice)...", flush=True)
    shadow_args = (
        "shadow", "--accumulator", acc, "--window", window, "--store", store,
        "--candidate", CANDIDATE_A, "--champion", CHAMPION,
        "--seed", "7", "--samples", "20", "--stride", "6", "--json",
    )
    first = json.loads(_learn(*shadow_args))
    second = json.loads(_learn(*shadow_args))
    if first != second:
        print("FAIL: two shadow evaluations with the same seed disagree")
        return 1
    print(f"OK: shadow scores are deterministic "
          f"(mae delta {first['deltas']['mae']:+.4f}, recommend={first['recommend']})")

    # ------------------------------------------------------------------
    # 4. promotion lifecycle over HTTP against a live gateway
    from ..artifacts import ArtifactStore
    from ..serving.client import ForecastClient, ServerError
    from ..serving.smoke import _spawn_server

    config_path = os.path.join(args.dir, "serve.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump({"store": store, "port": 0, "batch_window_ms": 2.0}, fh)
    print("starting repro-serve as a subprocess...", flush=True)
    process, port = _spawn_server(config_path)
    try:
        client = ForecastClient(port=port)
        reference = ArtifactStore(store)
        champion = reference.load_model(CHAMPION)
        candidate = reference.load_model(CANDIDATE_A)
        from ..data.features import build_race_features
        from .windows import TelemetryAccumulator

        holdout = TelemetryAccumulator(acc).window(window).holdout_races()[0]
        series = build_race_features(holdout)[0]

        client.promote(ALIAS, CHAMPION, note="initial champion")
        via_alias = client.forecast(_named_batch(champion, series, ALIAS))
        direct = client.forecast(_named_batch(champion, series, CHAMPION))
        if not all(np.array_equal(a, d) for a, d in zip(via_alias, direct)):
            print("FAIL: aliased forecast differs from addressing the champion directly")
            return 1
        baseline = via_alias
        print("OK: alias resolves at submit time (byte-identical to direct)")

        promoted = client.promote(ALIAS, CANDIDATE_A, note="shadow-eval winner")
        if promoted["previous"] != CHAMPION:
            print(f"FAIL: promotion recorded previous={promoted['previous']!r}")
            return 1
        via_alias = client.forecast(_named_batch(candidate, series, ALIAS))
        direct = client.forecast(_named_batch(candidate, series, CANDIDATE_A))
        if not all(np.array_equal(a, d) for a, d in zip(via_alias, direct)):
            print("FAIL: promoted alias does not serve the candidate")
            return 1
        print("OK: promotion re-pointed the champion alias to the candidate")

        try:
            client.unload(CANDIDATE_A)
        except ServerError as exc:
            if exc.code != "model_aliased":
                print(f"FAIL: unloading an aliased model raised {exc.code!r}")
                return 1
            print("OK: unloading an aliased model is a structured model_aliased error")
        else:
            print("FAIL: unloading an aliased model silently succeeded")
            return 1

        client.rollback(ALIAS)
        after_rollback = client.forecast(_named_batch(champion, series, ALIAS))
        if not all(np.array_equal(a, b) for a, b in zip(after_rollback, baseline)):
            print("FAIL: rollback is not byte-identical to the pre-promotion champion")
            return 1
        print("OK: rollback serves the previous champion byte-identically")
        return 0
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover
            process.kill()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
