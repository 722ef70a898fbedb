"""Scenario engine benchmark gates: validation, byte-identity, throughput.

Three guarantees are gated on the shipped workload matrix
(``benchmarks/scenarios/matrix.yaml``, 6 scenarios / 33 races):

* **validation** — ``repro-scenarios --validate`` accepts every shipped
  spec, so the documented examples cannot rot (the CI docs job runs the
  same command);
* **byte-identity** — the per-race JSON documents written by the
  in-process runner and by the same workload streamed through a live
  gateway's ``POST /v1/scenarios`` are byte-for-byte equal under a
  shared seed (per-scenario RNG streams are derived from the request
  seed, never from process state);
* **throughput floors** — the sweep stays season-scale-cheap: the
  measured full matrix (simulation + served forecast scoring) runs in
  ~1.6 s in-process on the 1-core reference host, and streamed HTTP
  delivers its first race long before the sweep completes.  Gates are
  set far above the measured medians (PR 2/3/5 precedent) so they only
  catch real regressions, not runner noise.
"""

import json
import pathlib

from repro.profiling.scenarios import MATRIX, scenario_benchmark
from repro.profiling.server import build_serving_fixture
from repro.scenarios.runner import main as runner_main
from repro.serving.server import ForecastServer, ServerConfig

from conftest import publish

REPO = pathlib.Path(__file__).resolve().parents[1]

# conservative floors of the measured medians (module docstring)
MIN_SIM_RACES_PER_S = 1.0          # measured ~40
MAX_MATRIX_WALL_S = 60.0           # measured ~1.6 in-process, ~1.8 http
MAX_FIRST_RESULT_FRACTION = 0.75   # streamed first race arrives well before the end


def test_bench_shipped_matrix_validates(capsys):
    assert runner_main([str(REPO / MATRIX), "--validate"]) == 0
    out = capsys.readouterr().out
    for name in (
        "caution_sweep", "driver_degradation", "alternate_tracks",
        "pit_strategy_grid", "season_championship", "forecast_check",
    ):
        assert name in out, out


def test_bench_runner_vs_gateway_byte_identity(tmp_path):
    """The same matrix run in-process and over HTTP writes identical JSON."""
    store = str(tmp_path / "store")
    build_serving_fixture(store)
    matrix = str(REPO / MATRIX)

    local_dir = tmp_path / "local"
    assert runner_main(
        [matrix, "--store", store, "--results", str(local_dir), "--quiet"]
    ) == 0

    http_dir = tmp_path / "http"
    config = ServerConfig(store=store, port=0, batch_window_ms=1.0)
    with ForecastServer(config) as server:
        assert runner_main(
            [
                matrix,
                "--gateway", f"127.0.0.1:{server.port}",
                "--results", str(http_dir),
                "--quiet",
            ]
        ) == 0

    local_files = sorted(p.name for p in local_dir.glob("*.json"))
    http_files = sorted(p.name for p in http_dir.glob("*.json"))
    assert local_files == http_files and len(local_files) == 6
    for name in local_files:
        local_bytes = (local_dir / name).read_bytes()
        http_bytes = (http_dir / name).read_bytes()
        assert local_bytes == http_bytes, f"{name} differs between in-process and HTTP"
        # and the documents really carry race results, not empty shells
        document = json.loads(local_bytes)
        assert document["races"] and document["summary"]["rows"]


def test_bench_scenario_throughput_and_streaming():
    measurements, identical = scenario_benchmark(matrix=str(REPO / MATRIX))
    assert identical, "in-process and http per-race documents diverged"
    by_path = {m.path: m for m in measurements}

    sim = by_path["simulate only"]
    local = by_path["in-process"]
    streamed = by_path["http streamed"]

    lines = [
        "Scenario engine benchmark (shipped matrix: 6 scenarios, 33 races,",
        "tiny DeepAR forecast scoring via the serving fixture; 1-core host)",
        f"{'path':<16}{'races':>7}{'wall_s':>9}{'first_s':>9}{'races/s':>9}",
    ]
    for m in measurements:
        row = m.as_row()
        lines.append(
            f"{row['path']:<16}{row['races']:>7}{row['wall_s']:>9.3f}"
            f"{row['first_result_s']:>9.3f}{row['races_per_s']:>9.2f}"
        )
    lines += [
        "byte-identity: every per-race document streamed over POST /v1/scenarios",
        "equals the in-process ScenarioEngine run under the shared seed, gated in",
        "test_bench_runner_vs_gateway_byte_identity and tests/scenarios/.",
    ]
    publish("scenarios.txt", "\n".join(lines))

    assert sim.races / sim.wall_s > MIN_SIM_RACES_PER_S, lines
    assert local.wall_s < MAX_MATRIX_WALL_S, lines
    assert streamed.wall_s < MAX_MATRIX_WALL_S, lines
    # chunked streaming means the first race lands well before the sweep ends
    assert streamed.first_result_s < MAX_FIRST_RESULT_FRACTION * streamed.wall_s, lines
