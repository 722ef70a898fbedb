"""Cross-process serving smoke check (the CI gate for ``repro-serve``).

One command::

    python -m repro.serving.smoke --dir /tmp/serve-smoke

It fits a tiny forecaster into a scratch
:class:`~repro.artifacts.ArtifactStore`, writes a ``repro-serve`` config,
launches the gateway as a **subprocess** (the real process boundary, not an
in-process test server), and then drives it with the stdlib
:class:`~repro.serving.ForecastClient`:

1. a batch forecast through ``/v1/forecast`` (and the micro-batch
   scheduler) must be byte-identical to submitting the same seeded
   requests to an in-process :class:`~repro.serving.ForecastService`;
2. a live race streamed lap by lap through ``/v1/sessions`` must be
   byte-identical to replaying the same race in process with
   :func:`~repro.serving.sessions.replay_race`.

Exit status is non-zero on any mismatch — this is the on-the-wire version
of the artifact smoke's reload guarantee.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from typing import List, Optional

import numpy as np

from ..artifacts import ArtifactStore
from ..data.features import build_race_features
from ..models import DeepARForecaster
from ..simulation import RaceSimulator, track_for_year
from .client import ForecastClient
from .requests import NamedForecastRequest
from .service import ForecastService
from .sessions import replay_race

MODEL_NAME = "smoke-deepar"
_LISTEN_RE = re.compile(r"listening on http://[^:]+:(\d+)")

_FORECAST_SEEDS = (11, 12, 13)
_SESSION = {"horizon": 2, "n_samples": 5, "min_history": 12, "start": 14, "stop": 30, "rng": 0}


def _race():
    track = replace(track_for_year("Indy500", 2018), total_laps=45, num_cars=8)
    return RaceSimulator(track, event="Indy500", year=2019, seed=3).run()


def _fit_store(root: str):
    race = _race()
    series = build_race_features(race)
    model = DeepARForecaster(
        encoder_length=12,
        decoder_length=2,
        hidden_dim=8,
        num_layers=1,
        epochs=1,
        batch_size=32,
        max_train_windows=150,
        seed=5,
    )
    model.fit(series[:4])
    ArtifactStore(root).save_model(MODEL_NAME, model)
    return race, series


def _named_batch(forecaster, series) -> List:
    return [
        NamedForecastRequest(MODEL_NAME, request)
        for i, seed in enumerate(_FORECAST_SEEDS)
        for request in forecaster._forecast_requests(series, 20 + i, 2, 7, seed)
    ]


def _spawn_server(config_path: str) -> "tuple[subprocess.Popen, int]":
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serving.server", "--config", config_path],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=os.environ.copy(),
    )
    deadline = time.monotonic() + 60.0
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        match = _LISTEN_RE.search(line)
        if match:
            return process, int(match.group(1))
    process.kill()
    raise RuntimeError("repro-serve subprocess never reported a listening port")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Serving gateway smoke check")
    parser.add_argument("--dir", required=True, help="scratch directory for store + config")
    args = parser.parse_args(argv)
    os.makedirs(args.dir, exist_ok=True)

    print("fitting the smoke model into a scratch artifact store...", flush=True)
    race, series = _fit_store(args.dir)

    config_path = os.path.join(args.dir, "serve.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"store": ".", "port": 0, "preload": [MODEL_NAME], "batch_window_ms": 2.0}, fh
        )

    print("starting repro-serve as a subprocess...", flush=True)
    process, port = _spawn_server(config_path)
    try:
        client = ForecastClient(port=port)

        # 1. forecast byte-identity across the process boundary
        reference_service = ForecastService(ArtifactStore(args.dir))
        forecaster = reference_service.load(MODEL_NAME).forecaster
        via_http = client.forecast(_named_batch(forecaster, series[0]))
        direct = reference_service.submit(_named_batch(forecaster, series[0]))
        for got, expected in zip(via_http, direct):
            if not np.array_equal(got, expected):
                print("FAIL: HTTP forecast differs from in-process submit")
                return 1
        print(
            f"OK: /v1/forecast reproduced {len(direct)} in-process forecasts "
            f"byte-identically ({direct[0].shape} each)"
        )

        # 2. lap-streamed session byte-identity
        session = client.open_session(
            MODEL_NAME, event=race.event, year=race.year, delay=4, **_SESSION
        )
        streamed = []
        for lap, records in race.iter_laps():
            streamed.extend(session.lap(lap, records))
        streamed.extend(session.close())

        reference = list(
            replay_race(ArtifactStore(args.dir).load_model(MODEL_NAME), race, **_SESSION)
        )
        if [o for o, _ in streamed] != [o for o, _ in reference]:
            print("FAIL: session emitted different origins than the in-process stream")
            return 1
        for (origin, got), (_, expected) in zip(streamed, reference):
            for car_id in set(got) | set(expected):
                if not np.array_equal(got.get(car_id), expected.get(car_id)):
                    print(f"FAIL: session forecast differs at origin {origin}, car {car_id}")
                    return 1
        cars = sum(len(f) for _, f in streamed)
        print(
            f"OK: a lap-streamed /v1/sessions race reproduced {len(streamed)} origins "
            f"({cars} car-forecasts) byte-identically"
        )
        return 0
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover
            process.kill()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
