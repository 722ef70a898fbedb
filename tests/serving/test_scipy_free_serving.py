"""The gateway and the model zoo start, and serve, without loading scipy.

scipy is imported only inside the functions that use it (the SVR fit, the
Student-t NLL and quantile, ``gaussian_quantile``), so a process that only
serves never pays its import time or memory.  Each check runs in a fresh
interpreter, because this test process has usually imported scipy already.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import repro
from repro.artifacts import ArtifactStore
from repro.data import build_race_features
from repro.models import RankNetForecaster
from repro.serving import ForecastClient, wire
from repro.simulation import RaceSimulator, track_for_year

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: prints the sorted names of every loaded scipy module as JSON
_REPORT = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"

_GATEWAY_SCRIPT = f"""
import json, sys
from repro.serving.server import ForecastGateway, ServerConfig

store, script = sys.argv[1], sys.argv[2]
gateway = ForecastGateway(
    ServerConfig(store=store, port=0, preload=["ranknet"], batch_window_ms=0.0)
)
try:
    sid, emitted = None, 0
    for method, path, body in json.load(open(script)):
        status, document = gateway.handle(method, path.format(sid=sid), body)
        assert status == 200, (path, document)
        sid = document.get("session", sid)
        emitted += len(document.get("results") or [])
    assert emitted > 0, "the session laps emitted no forecast"
finally:
    gateway.close()
{_REPORT}
"""


def _scipy_modules(*args: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_importing_the_gateway_models_and_artifacts_loads_no_scipy():
    script = (
        "import json, sys\n"
        "import repro.serving.server, repro.models, repro.artifacts\n" + _REPORT
    )
    assert _scipy_modules(script) == []


@pytest.fixture(scope="module")
def race():
    track = replace(track_for_year("Indy500", 2018), total_laps=45, num_cars=8)
    return RaceSimulator(track, event="Indy500", year=2019, seed=3).run()


def test_a_ranknet_gateway_serves_forecast_laps_and_sweep_without_scipy(race, tmp_path):
    series = build_race_features(race)
    store = str(tmp_path / "store")
    forecaster = RankNetForecaster(
        variant="oracle",
        encoder_length=12,
        decoder_length=2,
        hidden_dim=8,
        num_layers=1,
        epochs=1,
        batch_size=32,
        max_train_windows=150,
        seed=6,
    ).fit(series[:4])
    ArtifactStore(store).save_model("ranknet", forecaster)

    car = series[0]
    request = ForecastClient.request(
        "ranknet",
        forecaster._history_target(car, 20),
        forecaster._history_covariates(car, 20),
        forecaster._future_covariates(car, 20, 2),
        n_samples=7,
        rng=11,
        key=(car.race_id, car.car_id),
        origin=20,
    )
    open_document = wire.envelope(
        "session-open",
        model="ranknet",
        horizon=2,
        n_samples=5,
        min_history=12,
        rng=wire.rng_to_wire(0),
        delay=4,
        start=14,
        stop=20,
        event=race.event,
        year=race.year,
    )
    steps = [("POST", "/v1/forecast", wire.forecast_batch_to_wire([request]))]
    steps.append(("POST", "/v1/sessions", open_document))
    for lap, records in list(race.iter_laps())[:20]:
        lap_document = wire.envelope(
            "session-lap", lap=int(lap), records=[wire.lap_record_to_wire(r) for r in records]
        )
        steps.append(("POST", "/v1/sessions/{sid}/lap", lap_document))
    steps.append(
        (
            "POST",
            "/v1/strategy/sweep",
            wire.sweep_request_to_wire("ranknet", car, [24, 25], 5, n_samples=8, rng=17),
        )
    )
    script = tmp_path / "steps.json"
    script.write_text(json.dumps(steps))

    assert _scipy_modules(_GATEWAY_SCRIPT, store, str(script)) == []
