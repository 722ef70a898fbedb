"""Serving workloads: a real ``repro-serve`` subprocess driven by one client.

``forecast-gateway``
    One ``POST /v1/forecast`` per op: 8 requests x 100 samples over the cars
    and origins of a simulated 33-car race, cycled through a fixed set of
    batches.  In-process mode, default micro-batch window.
``live-race``
    One ``POST /v1/sessions/<id>/lap`` per op: the race streamed lap by lap
    (open, every lap, close, then again).  Worker mode, journal at its
    defaults.

Every op's samples must equal, byte for byte, an in-process reference
computed untimed before the loop: ``ForecastService.submit`` for forecasts,
a ``RaceSession`` over the same artifact for laps.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from contextlib import ExitStack, closing
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from . import report
from .checks import arrays_match, emitted_match
from .tracing import Ops, Tracer, per_op_totals, self_time

MODEL = "ranknet"
#: the simulated race both workloads serve (the seed picks the race)
RACE_EVENT, RACE_YEAR, RACE_LAPS, RACE_CARS = "Indy500", 2018, 60, 33
#: Table-IV-shaped served model: 2x40 LSTM, encoder 30.  The oracle variant
#: reads future covariates from the series, so a seeded session is
#: deterministic (the MLP variant samples pit plans from the model's own RNG).
SERVED_MODEL = dict(
    variant="oracle",
    encoder_length=30,
    decoder_length=2,
    hidden_dim=40,
    num_layers=2,
    epochs=1,
    batch_size=64,
    max_train_windows=64,
    seed=2021,
)
HORIZON = 2
BATCH_REQUESTS = 8
BATCH_SAMPLES = 100
BATCHES = 8  # distinct forecast batches per run, cycled
SESSION = dict(horizon=HORIZON, n_samples=50, min_history=10)
SERVER_CONFIG = {"forecast-gateway": {}, "live-race": {"workers": True}}
SETUP_SPAWNS = 3  # timed spawns per run, after one untimed page-cache warm-up
IMPORT_PROBES = 3
WARMUP_S = 2.0  # untimed ops before timing: lazy set-up and caches
READY_TIMEOUT_S = 60.0
TRACE_BLOCK_S = 2.5  # traced run: HTTP and in-process blocks alternate
_LISTEN = re.compile(r"listening on http://[^:]+:(\d+)")


# ----------------------------------------------------------------------
# fixture: served artifact, inputs, reference outputs (all untimed)
# ----------------------------------------------------------------------
class Fixture:
    """The served artifact, the op inputs and their reference outputs."""

    def __init__(self, workdir: str, workload: str, seed: int) -> None:
        import numpy as np

        from repro.artifacts import ArtifactStore
        from repro.data.features import DEFAULT_SHIFT_LAG, build_race_features
        from repro.models import RankNetForecaster
        from repro.serving import wire
        from repro.simulation import RaceSimulator, track_for_year

        self.workload = workload
        self.store = os.path.join(workdir, "store")
        track = replace(track_for_year(RACE_EVENT, RACE_YEAR), total_laps=RACE_LAPS, num_cars=RACE_CARS)
        self.race = RaceSimulator(track, event=RACE_EVENT, year=RACE_YEAR, seed=seed).run()
        self.series = build_race_features(self.race)
        fitted = RankNetForecaster(**SERVED_MODEL).fit(self.series)
        ArtifactStore(self.store).save_model(MODEL, fitted)
        self.forecaster = ArtifactStore(self.store).load_model(MODEL)
        rng = np.random.default_rng(seed)
        if workload == "forecast-gateway":
            self.batch_specs = self._batch_specs(rng)
            self.batches = [self.requests(k) for k in range(BATCHES)]
            self.reference = self._forecast_reference()
        else:
            self.laps = [(lap, list(records)) for lap, records in self.race.iter_laps()]
            self.open_document = wire.envelope(
                "session-open",
                model=MODEL,
                rng=wire.rng_to_wire(int(rng.integers(2**31))),
                delay=DEFAULT_SHIFT_LAG + HORIZON,
                start=None,
                stop=None,
                stride=1,
                event=self.race.event,
                year=self.race.year,
                precision="float64",
                **SESSION,
            )
            self.reference_laps, self.reference_close = self._session_reference()

    def _batch_specs(self, rng) -> List[List[Tuple[int, int, int]]]:
        """(series index, origin, rng seed) per request; every origin has a
        full encoder-length history, so all batches cost the same."""
        first = SERVED_MODEL["encoder_length"] - 1
        eligible = [i for i, s in enumerate(self.series) if len(s) - 2 > first]
        specs = []
        for _ in range(BATCHES):
            cars = rng.choice(len(eligible), size=BATCH_REQUESTS, replace=False)
            batch = []
            for car in cars:
                index = eligible[int(car)]
                origin = int(rng.integers(first, len(self.series[index]) - 1))
                batch.append((index, origin, int(rng.integers(2**31))))
            specs.append(batch)
        return specs

    def requests(self, k: int):
        """Fresh request objects of batch ``k`` (the in-process path consumes RNGs)."""
        from repro.serving.client import ForecastClient

        f = self.forecaster
        batch = []
        for index, origin, seed in self.batch_specs[k]:
            s = self.series[index]
            batch.append(
                ForecastClient.request(
                    MODEL,
                    f._history_target(s, origin),
                    f._history_covariates(s, origin),
                    f._future_covariates(s, origin, HORIZON),
                    n_samples=BATCH_SAMPLES,
                    rng=seed,
                    key=(s.race_id, s.car_id),
                    origin=origin,
                )
            )
        return batch

    def _forecast_reference(self):
        from repro.artifacts import ArtifactStore
        from repro.serving import ForecastService

        service = ForecastService(ArtifactStore(self.store))
        return [service.submit(self.requests(k)) for k in range(BATCHES)]

    def session(self, forecaster=None):
        from repro.serving.sessions import build_live_session

        return build_live_session(self.open_document, forecaster or self.forecaster)

    def wire_laps(self):
        from repro.serving import wire

        return [(lap, [wire.lap_record_to_wire(r) for r in records]) for lap, records in self.laps]

    def _session_reference(self):
        from repro.artifacts import ArtifactStore

        session = self.session(ArtifactStore(self.store).load_model(MODEL))
        laps = [session.observe_lap(lap, records) for lap, records in self.wire_laps()]
        return laps, session.finish()


# ----------------------------------------------------------------------
# the gateway subprocess
# ----------------------------------------------------------------------
class Server:
    """``repro-serve`` (``python -m repro.serving.server``) as a child process."""

    def __init__(self, root: str, workdir: str, workload: str, index: int) -> None:
        config = os.path.join(workdir, "serve.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"store": "store", "port": 0, "preload": [MODEL], **SERVER_CONFIG[workload]}, fh)
        self._log = open(os.path.join(workdir, f"serve-{index}.log"), "w", encoding="utf-8")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serving.server", "--config", config],
            cwd=root,
            env=report.subprocess_env(root),
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self.port = None
        with report.watchdog(self.process, READY_TIMEOUT_S):
            for line in self.process.stdout:
                match = _LISTEN.search(line)
                if match:
                    self.port = int(match.group(1))
                    break
        self.ready_s = time.perf_counter() - start
        if self.port is None:
            self.stop()
            raise RuntimeError(f"repro-serve exited before listening; see serve-{index}.log")

    def peak_rss_mb(self) -> float:
        return report.tree_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure no replica outlives it."""
        family = report.process_tree(self.process.pid)[1:]
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        self.process.stdout.close()
        self._log.close()
        deadline = time.monotonic() + 10
        for pid in family:
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                try:
                    if _zombie_or_gone(pid):
                        break
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    break
                time.sleep(0.01)


def _zombie_or_gone(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def spawn_timed(root: str, workdir: str, workload: str) -> Tuple[Server, List[float]]:
    """Untimed warm-up spawn, then timed spawns; the last one keeps serving."""
    samples: List[float] = []
    server = None
    for index in range(SETUP_SPAWNS + 1):
        if server is not None:
            server.stop()
        server = Server(root, workdir, workload, index)
        if index:
            samples.append(server.ready_s)
    return server, samples


# ----------------------------------------------------------------------
# closed loops over HTTP (one client, one op in flight)
# ----------------------------------------------------------------------
def forecast_loop(fixture: Fixture, port: int, seconds: float, ops: Ops) -> float:
    """Forecast posts for ``seconds``; returns the loop's wall time."""
    from repro.serving.client import ForecastClient

    client = ForecastClient(port=port, timeout_s=60)
    first = ops.attempted
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or ops.attempted == first:
        k = ops.attempted % BATCHES
        try:
            got = ops.call(lambda: client.forecast(fixture.batches[k]))
        except Exception as exc:  # a failed op counts against ops_ok_share
            print(f"forecast failed: {exc!r}", file=sys.stderr)
            continue
        ops.ok += arrays_match(got, fixture.reference[k])
    return time.perf_counter() - started


def race_loop(fixture: Fixture, port: int, seconds: float, ops: Ops) -> float:
    """The race streamed lap by lap, again and again, for ``seconds``;
    returns the wall time up to the last lap."""
    from repro.serving.client import ForecastClient

    client = ForecastClient(port=port, timeout_s=60)
    open_kwargs = {
        key: fixture.open_document[key]
        for key in ("horizon", "n_samples", "min_history", "delay", "event", "year")
    }
    open_kwargs["rng"] = fixture.open_document["rng"]["seed"]
    first = ops.attempted
    started = time.perf_counter()
    wall = 0.0
    while time.perf_counter() - started < seconds or ops.attempted == first:
        try:
            session = client.open_session(MODEL, **open_kwargs)
        except Exception as exc:  # counts as one failed op
            print(f"session open failed: {exc!r}", file=sys.stderr)
            ops.attempted += 1
            continue
        finished = True
        last_ok = False
        for i, (lap, records) in enumerate(fixture.laps):
            if ops.attempted > first and time.perf_counter() - started >= seconds:
                finished = False
                break
            try:
                got = ops.call(lambda: session.lap(lap, records))
            except Exception as exc:
                print(f"lap {lap} failed: {exc!r}", file=sys.stderr)
                continue
            wall = time.perf_counter() - started
            last_ok = emitted_match(got, fixture.reference_laps[i])
            ops.ok += last_ok
        try:
            remaining = session.close(drain=finished)
        except Exception as exc:
            print(f"session close failed: {exc!r}", file=sys.stderr)
            remaining = None
        if finished and last_ok and (
            remaining is None or not emitted_match(remaining, fixture.reference_close)
        ):
            # the drained tail belongs to the race's last lap
            print("session close drained different forecasts", file=sys.stderr)
            ops.ok -= 1
    return wall


LOOPS = {"forecast-gateway": forecast_loop, "live-race": race_loop}


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def gemm_row_fill(shapes: Sequence[Tuple[int, int, int]], chunk: int) -> float:
    """Real rows / rows after padding to ``chunk``-row blocks, over warm-up GEMMs.

    Each ``(batch, steps, layers)`` warm-up pass runs, per layer, one input
    projection over ``batch * steps`` rows and ``steps`` recurrent products
    over ``batch`` rows; every product is padded to whole ``chunk`` blocks.
    """
    real = padded = 0
    for batch, steps, layers in shapes:
        for rows, calls in ((batch * steps, 1), (batch, steps)):
            real += rows * calls * layers
            padded += -(-rows // chunk) * chunk * calls * layers
    return real / padded if padded else 0.0


def record_warmup_shapes(tracer: Tracer, shapes: List[Tuple[int, int, int]]) -> None:
    """Appends ``(batch, steps, layers)`` of every warm-up pass to ``shapes``
    while ``tracer``'s wrappers are installed."""
    from repro.nn.inference import LSTMStackInference

    original = vars(LSTMStackInference)["forward_sequence"]

    def forward_sequence(stack, x, states=None):
        shapes.append((x.shape[0], x.shape[1], len(stack.stack.cells)))
        return original(stack, x, states)

    tracer.patch(LSTMStackInference, "forward_sequence", forward_sequence)


#: engine counters reported per op: (metric, FleetForecaster key, scale, unit)
ENGINE_DELTAS = (
    ("engine.warmup_ms", "warmup_s", 1e3, "ms"),
    ("engine.decode_ms", "decode_s", 1e3, "ms"),
    ("engine.warmup_steps", "warmup_steps", 1, "count"),
    ("engine.decode_steps", "decode_steps", 1, "count"),
)


def engine_snapshot(engine) -> Dict[str, float]:
    """``FleetForecaster.timings`` and ``.stats`` in one dict."""
    return {**engine.timings, **engine.stats}


def _delta(after: Dict[str, float], before: Dict[str, float], key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


def engine_metrics(snapshots: Sequence[Tuple[dict, dict]]) -> Dict[str, dict]:
    """Per-op medians of the engine counters over ``(before, after)`` pairs."""
    return {
        name: report.metric(
            report.median([_delta(after, before, key) for before, after in snapshots]) * scale,
            unit,
            len(snapshots),
        )
        for name, key, scale, unit in ENGINE_DELTAS
    }


def import_ms(root: str) -> float:
    """Fresh-interpreter import of the gateway's entry module."""
    samples = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.serving.server"],
            cwd=root,
            env=report.subprocess_env(root),
            check=True,
            timeout=READY_TIMEOUT_S,
        )
        samples.append(time.perf_counter() - start)
    return report.median_ms(samples)


def load_ms(fixture: Fixture) -> float:
    from repro.artifacts import ArtifactStore

    samples = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        ArtifactStore(fixture.store).load_model(MODEL)
        samples.append(time.perf_counter() - start)
    return report.median_ms(samples)


def _gateway(fixture: Fixture):
    """The workload's gateway in-process, on its own copy of the store (so
    its session journals never share a directory with the subprocess's).
    It is built before the layer wrappers are installed: in worker mode the
    replica forks from this process and must not inherit them.  Returns
    the gateway and its worker spawn times."""
    from repro.serving.server import ForecastGateway, ServerConfig
    from repro.serving.supervisor import WorkerSupervisor

    store = shutil.copytree(fixture.store, fixture.store + "-in-process")
    config = dict(SERVER_CONFIG[fixture.workload], store=store, port=0, preload=[MODEL])
    with Tracer() as spawn:
        spawn.wrap(WorkerSupervisor, "ensure", "workers.ensure")
        gateway = ForecastGateway(ServerConfig(**config))
    return gateway, [s.duration for s in spawn.spans]


def _wrap_gateway(tracer: Tracer) -> None:
    from repro.serving.engine import FleetForecaster
    from repro.serving.journal import SessionJournal
    from repro.serving.server import ForecastGateway
    from repro.serving.service import ForecastService
    from repro.serving.supervisor import RaceSessionProxy

    tracer.wrap(ForecastGateway, "handle", "gateway.handle")
    tracer.wrap(ForecastService, "submit", "service.submit")
    tracer.wrap(FleetForecaster, "submit", "engine.submit")
    tracer.wrap(RaceSessionProxy, "apply_lap", "workers.apply_lap")
    tracer.wrap(SessionJournal, "record_lap", "journal.record_lap")
    tracer.wrap(SessionJournal, "compact", "journal.compact")


class ForecastLayers:
    """The forecast path behind HTTP, in-process on the same bodies:
    gateway, scheduler, service, engine and the wire codecs.  Every other
    ``ForecastGateway.handle`` call runs with the layer wrappers on."""

    def __init__(self, fixture: Fixture, stack: ExitStack) -> None:
        self.fixture = fixture
        self.gateway, _ = _gateway(fixture)
        stack.enter_context(closing(self.gateway))
        self.shapes: List[Tuple[int, int, int]] = []
        self.handles = Ops(install=self._install)
        self.op_sets = (self.handles,)
        self.engine = self.gateway.service.load(MODEL).engine(self.gateway.config.mode)
        self.scheduler_before = self.gateway.scheduler_stats()
        self.encode: List[float] = []
        self.decode: List[float] = []
        self.request_kb: List[float] = []
        self.response_kb: List[float] = []
        self.snapshots: List[Tuple[dict, dict]] = []

    def _install(self, tracer: Tracer) -> None:
        _wrap_gateway(tracer)
        record_warmup_shapes(tracer, self.shapes)

    def run(self, seconds: float) -> None:
        from repro.serving import wire

        first = self.handles.attempted
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or self.handles.attempted == first:
            k = self.handles.attempted % BATCHES
            t0 = time.perf_counter()
            payload = wire.forecast_batch_to_wire(self.fixture.batches[k])
            t1 = time.perf_counter()
            wire.forecast_batch_from_wire(payload)
            t2 = time.perf_counter()
            before = engine_snapshot(self.engine)
            # looked up inside the op, so a traced op calls the wrapper
            status, document = self.handles.call(lambda: self.gateway.handle("POST", "/v1/forecast", payload))
            self.snapshots.append((before, engine_snapshot(self.engine)))
            t3 = time.perf_counter()
            results = wire.results_from_wire(document)
            t4 = time.perf_counter()
            wire.results_to_wire(results)
            t5 = time.perf_counter()
            self.handles.ok += status == 200 and arrays_match(results, self.fixture.reference[k])
            self.encode.append((t1 - t0) + (t5 - t4))
            self.decode.append((t2 - t1) + (t4 - t3))
            self.request_kb.append(len(json.dumps(payload)) / 1e3)
            self.response_kb.append(len(json.dumps(document)) / 1e3)
        self.scheduler_after = self.gateway.scheduler_stats()

    def metrics(self) -> Dict[str, dict]:
        from repro.nn.kernels import STABLE_CHUNK_ROWS

        spans, n = self.handles.tracer.spans, len(self.handles.traced_ops())
        batches = _delta(self.scheduler_after, self.scheduler_before, "batches")
        requests = _delta(self.scheduler_after, self.scheduler_before, "requests")
        return {
            "wire.encode_ms": report.metric(report.median_ms(self.encode), "ms", len(self.encode)),
            "wire.decode_ms": report.metric(report.median_ms(self.decode), "ms", len(self.decode)),
            "wire.request_kb": report.metric(report.median(self.request_kb), "kB", len(self.request_kb)),
            "wire.response_kb": report.metric(report.median(self.response_kb), "kB", len(self.response_kb)),
            "gateway.handle_ms": report.metric(
                report.median_ms(per_op_totals(spans, "gateway.handle").values()), "ms", n
            ),
            "gateway.self_ms": report.metric(
                report.median_ms(self_time(spans, "gateway.handle", ("service.submit",)).values()), "ms", n
            ),
            "scheduler.requests_per_batch": report.metric(
                requests / batches if batches else 0.0, "count", int(batches)
            ),
            "service.submit_ms": report.metric(
                report.median_ms(per_op_totals(spans, "service.submit").values()), "ms", n
            ),
            "service.self_ms": report.metric(
                report.median_ms(self_time(spans, "service.submit", ("engine.submit",)).values()), "ms", n
            ),
            "engine.gemm_row_fill": report.metric(
                gemm_row_fill(self.shapes, STABLE_CHUNK_ROWS), "ratio", len(self.shapes)
            ),
            **engine_metrics(self.snapshots),
        }


class RaceLayers:
    """The lap path behind HTTP, in-process on the same laps: a worker-mode
    gateway (handle, journal, worker pipe) and a ``RaceSession`` (session,
    features, carry-mode engine), one race through each per round.  Every
    other lap of each runs with the layer wrappers on."""

    def __init__(self, fixture: Fixture, stack: ExitStack) -> None:
        self.fixture = fixture
        self.laps = fixture.wire_laps()
        self.gateway, self.spawn = _gateway(fixture)
        stack.enter_context(closing(self.gateway))
        self.shapes: List[Tuple[int, int, int]] = []
        self.handles = Ops(install=_wrap_gateway)
        self.observes = Ops(install=self._install_session)
        self.op_sets = (self.handles, self.observes)
        self.engine = fixture.forecaster.fleet_engine(mode="carry", precision="float64")
        self.first_snapshot = engine_snapshot(self.engine)
        self.snapshots: List[Tuple[dict, dict]] = []
        self.emitting = 0

    def _install_session(self, tracer: Tracer) -> None:
        from repro.data.features import LiveFeatureBuilder
        from repro.serving.sessions import RaceSession

        # the gateway's sessions live in its (already forked) worker, so
        # these spans come from the in-process session only
        tracer.wrap(RaceSession, "observe_lap", "sessions.observe_lap")
        tracer.wrap(LiveFeatureBuilder, "observe_lap", "features.observe_lap")
        record_warmup_shapes(tracer, self.shapes)

    def _gateway_race(self) -> None:
        from repro.serving import wire
        from repro.serving.client import LiveSessionClient

        # open and close are not ops
        _, opened = self.gateway.handle("POST", "/v1/sessions", self.fixture.open_document)
        sid = opened["session"]
        for i, (lap, records) in enumerate(self.laps):
            body = wire.envelope("session-lap", lap=lap, records=records)
            body["idempotency_key"] = f"{sid}-lap-{lap}"
            status, document = self.handles.call(
                lambda: self.gateway.handle("POST", f"/v1/sessions/{sid}/lap", body)
            )
            self.handles.ok += status == 200 and emitted_match(
                LiveSessionClient._decode_results(document), self.fixture.reference_laps[i]
            )
        self.gateway.handle("DELETE", f"/v1/sessions/{sid}", {"drain": True})

    def _session_race(self) -> None:
        session = self.fixture.session()
        for i, (lap, records) in enumerate(self.laps):
            before = engine_snapshot(self.engine)
            got = self.observes.call(lambda: session.observe_lap(lap, records))
            self.snapshots.append((before, engine_snapshot(self.engine)))
            self.emitting += bool(got)
            self.observes.ok += emitted_match(got, self.fixture.reference_laps[i])

    def run(self, seconds: float) -> None:
        first = self.handles.attempted
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or self.handles.attempted == first:
            self._gateway_race()
            self._session_race()

    def metrics(self) -> Dict[str, dict]:
        from repro.nn.kernels import STABLE_CHUNK_ROWS

        def per_op(ops, name):
            totals = per_op_totals(ops.tracer.spans, name)
            return [totals.get(op, 0.0) for op in ops.traced_ops()]

        spans = self.handles.tracer.spans
        record = [s.duration for s in spans if s.name == "journal.record_lap"]
        compact = [s.duration for s in spans if s.name == "journal.compact"]
        gateway_self = self_time(spans, "gateway.handle", ("workers.apply_lap", "journal.record_lap"))
        handle_ms = report.median_ms(per_op(self.handles, "gateway.handle"))
        observe_ms = report.median_ms(per_op(self.observes, "sessions.observe_lap"))
        last = engine_snapshot(self.engine)
        hits = _delta(last, self.first_snapshot, "cache_hits")
        lookups = hits + _delta(last, self.first_snapshot, "cache_misses")
        n_gw, n_s = len(self.handles.traced_ops()), len(self.observes.traced_ops())
        return {
            "gateway.handle_ms": report.metric(handle_ms, "ms", n_gw),
            "gateway.self_ms": report.metric(report.median_ms(gateway_self.values()), "ms", n_gw),
            "journal.record_lap_ms": report.metric(report.median_ms(record), "ms", len(record)),
            "journal.compact_ms": report.metric(report.median_ms(compact), "ms", len(compact)),
            "workers.pipe_ms": report.metric(handle_ms - observe_ms - report.median_ms(record), "ms", n_gw),
            "workers.spawn_ms": report.metric(report.median_ms(self.spawn), "ms", len(self.spawn)),
            "sessions.observe_lap_ms": report.metric(observe_ms, "ms", n_s),
            "features.observe_lap_ms": report.metric(
                report.median_ms(per_op(self.observes, "features.observe_lap")), "ms", n_s
            ),
            **engine_metrics(self.snapshots),
            "engine.cache_hit_share": report.metric(hits / lookups if lookups else 0.0, "ratio", int(lookups)),
            "engine.gemm_row_fill": report.metric(
                gemm_row_fill(self.shapes, STABLE_CHUNK_ROWS), "ratio", len(self.shapes)
            ),
            "laps.emitting_share": report.metric(
                self.emitting / max(self.observes.attempted, 1), "ratio", self.observes.attempted
            ),
        }


LAYERS = {"forecast-gateway": ForecastLayers, "live-race": RaceLayers}
CLIENT_CALL = {"forecast-gateway": ("ForecastClient", "forecast"), "live-race": ("LiveSessionClient", "lap")}


def _wrap_client(workload: str):
    def install(tracer: Tracer) -> None:
        import repro.serving.client as client_module

        owner, method = CLIENT_CALL[workload]
        tracer.wrap(getattr(client_module, owner), method, "client.roundtrip")

    return install


def run(root: str, workload: str, seed: int, seconds: float, trace: bool, workdir: str):
    """One benchmark run; returns (correct, attempted, failed, metrics)."""
    fixture = Fixture(workdir, workload, seed)
    loop = LOOPS[workload]
    warmup = Ops()
    if not trace:
        ops = Ops()
        server, setup = spawn_timed(root, workdir, workload)
        try:
            loop(fixture, server.port, WARMUP_S, warmup)
            wall = loop(fixture, server.port, seconds, ops)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        ok, attempted = ops.ok + warmup.ok, ops.attempted + warmup.attempted
        metrics = report.end_to_end(ops.latencies(), wall, setup, rss, ok, attempted)
        return ok == attempted, attempted, attempted - ok, metrics

    # traced run: blocks of the HTTP loop alternate with blocks of the same
    # inputs through the layers behind it in-process, so both sides of every
    # derived metric see the same host; on both, every other call is traced
    ops = Ops(install=_wrap_client(workload))
    server = Server(root, workdir, workload, 0)
    with ExitStack() as stack:
        stack.callback(server.stop)
        loop(fixture, server.port, WARMUP_S, warmup)
        layers = LAYERS[workload](fixture, stack)
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            loop(fixture, server.port, TRACE_BLOCK_S, ops)
            layers.run(TRACE_BLOCK_S)
    metrics = layers.metrics()
    roundtrips = [span.duration for span in ops.tracer.spans]
    roundtrip_ms = report.median_ms(roundtrips)
    metrics["client.roundtrip_ms"] = report.metric(roundtrip_ms, "ms", len(roundtrips))
    metrics["http.overhead_ms"] = report.metric(
        roundtrip_ms - metrics["gateway.handle_ms"]["value"], "ms", len(roundtrips)
    )
    metrics["trace.overhead_ms"] = report.trace_overhead(ops, *layers.op_sets)
    metrics["setup.import_ms"] = report.metric(import_ms(root), "ms", IMPORT_PROBES)
    metrics["artifacts.load_ms"] = report.metric(load_ms(fixture), "ms", IMPORT_PROBES)
    every = (warmup, ops, *layers.op_sets)
    ok = sum(s.ok for s in every)
    attempted = sum(s.attempted for s in every)
    return ok == attempted, attempted, attempted - ok, report.per_layer(metrics)
