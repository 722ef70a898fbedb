"""Chaos harness for the serving tier (``make bench-chaos`` / ``make chaos``).

Runs the real ``repro-serve`` **subprocess** under a deterministic fault
schedule and gates four resilience guarantees end to end:

1. **Retry byte-identity** — a forecast issued through a retrying client
   while the gateway injects a 5xx, drops a response after executing it,
   and delays the follow-up (plus a client-side connection drop) must be
   bitwise equal to the fault-free run, with the server-side idempotency
   cache deduplicating the re-executed attempt.
2. **Crash recovery** — the gateway is SIGKILLed mid-session and
   restarted on the same store; it must rebuild the live session from its
   write-ahead journal, replay a re-posted duplicate lap identically, and
   produce byte-identical forecasts for every remaining lap (reference:
   the race replayed in process by :func:`~repro.serving.sessions.replay_race`).
3. **Bounded overload** — concurrent callers past the admission bound are
   shed with structured ``429 overloaded`` envelopes; retrying clients
   must all complete, and no call may exceed the latency ceiling.
4. **Lap replay** (both profiles) — a session lap whose response is lost
   after the gateway applied it is retried under the same
   ``idempotency_key``; the session (not the gateway's idempotency
   cache, which never holds lap documents) replays it, and the streamed
   forecasts stay bitwise equal to a fault-free in-process session.

The ``workers`` profile (``make chaos-workers``) runs the same server
with ``workers: true`` — every model a supervised forked subprocess — and
gates the worker-pool guarantees instead (plus the lap-replay gate):

5. **Worker-kill failover** — the replica serving a live session is
   SIGKILLed mid-race by a server-side ``kill_worker`` fault; the
   supervisor restarts it, replays the session journal into the fresh
   process, and the streamed forecasts stay bitwise equal to an
   uncrashed in-process run.
6. **Hang detection** — a ``hang_worker`` fault SIGSTOPs the replica; the
   heartbeat deadline escalates to SIGKILL, and a retrying client's
   forecast through the restart window is byte-identical to the
   in-process submission.
7. **Gateway kill** — the gateway itself is SIGKILLed; every replica
   (the current one was forked after the port was bound) must exit within
   two heartbeat deadlines, and the port must be free to bind at once.

Exit status is non-zero when any gate fails::

    python -m repro.profiling.chaos --dir /tmp/repro-chaos
    python -m repro.profiling.chaos --dir /tmp/repro-chaos --profile workers
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import threading
import time
from typing import List, Optional, Tuple

import numpy as np

from ..artifacts import ArtifactStore
from ..serving.client import ForecastClient, LiveSessionClient
from ..serving.faults import FaultPlan, FaultSpec
from ..serving.journal import JOURNAL_SUFFIX, journal_dir
from ..serving.resilience import RetryPolicy
from ..serving.smoke import (
    _SESSION,
    MODEL_NAME,
    _fit_store,
    _named_batch,
    _spawn_server,
)
from ..serving.service import ForecastService
from ..serving.sessions import replay_race

#: lap at which the gateway is SIGKILLed (inside the emitting window)
KILL_AT_LAP = 20

#: server-side schedule for gate 1; request ordinal 0 is the fault-free
#: reference, the retried call then walks straight through the gauntlet
FAULT_PLAN = {
    "faults": [
        {"kind": "error", "route": "POST /v1/forecast", "at": 1, "status": 503},
        {"kind": "drop", "route": "POST /v1/forecast", "at": 2, "when": "after"},
        {"kind": "delay", "route": "POST /v1/forecast", "at": 3, "delay_s": 0.05},
    ]
}

#: schedule for the ``workers`` profile: SIGKILL the model's replica just
#: before the lap-``KILL_AT_LAP`` post dispatches (lap posts are the only
#: requests matching ``/lap$``, and laps start at 1, so the 0-based
#: ordinal is ``KILL_AT_LAP - 1``), then SIGSTOP the respawned replica
#: before the first ``/v1/forecast`` of the hang gate
WORKER_FAULT_PLAN = {
    "faults": [
        {
            "kind": "kill_worker",
            "route": r"/lap$",
            "at": KILL_AT_LAP - 1,
            "model": MODEL_NAME,
        },
        {"kind": "hang_worker", "route": r"POST /v1/forecast", "at": 0, "model": MODEL_NAME},
    ]
}

#: client-side fault of the lap-replay gate: the response to the
#: lap-``KILL_AT_LAP`` post (laps start at 1, so the 0-based ordinal is
#: ``KILL_AT_LAP - 1``) is lost after the gateway applied the lap
LAP_DROP = FaultSpec(
    kind="drop", route=r"POST /v1/sessions/.*/lap", at=KILL_AT_LAP - 1, when="after"
)

#: the workers profile's heartbeat deadline (``heartbeat_timeout_s``)
WORKER_HEARTBEAT_TIMEOUT_S = 1.0

RETRY = RetryPolicy(max_attempts=8, base_delay_s=0.05, max_delay_s=0.5, seed=0)

#: ceiling for any single overloaded call, retries included (seconds)
OVERLOAD_LATENCY_CEILING_S = 30.0


def _write_config(directory: str) -> str:
    path = os.path.join(directory, "chaos-serve.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "store": ".",
                "port": 0,
                "preload": [MODEL_NAME],
                "batch_window_ms": 2.0,
                "max_inflight": 1,
                "fault_plan": FAULT_PLAN,
            },
            fh,
        )
    return path


def _write_worker_config(directory: str) -> str:
    path = os.path.join(directory, "chaos-workers-serve.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "store": ".",
                "port": 0,
                "preload": [MODEL_NAME],
                "batch_window_ms": 2.0,
                "workers": True,
                "heartbeat_interval_s": 0.1,
                "heartbeat_timeout_s": WORKER_HEARTBEAT_TIMEOUT_S,
                "worker_backoff_s": 0.05,
                "worker_restart_budget": 5,
                "fault_plan": WORKER_FAULT_PLAN,
            },
            fh,
        )
    return path


def _spawn(config_path: str):
    process, port = _spawn_server(config_path)
    # keep the merged stdout/stderr pipe drained so a chatty gateway can
    # never block on a full pipe buffer mid-gate
    threading.Thread(target=process.stdout.read, daemon=True).start()
    return process, port


def _emissions_equal(
    got: List[Tuple[int, dict]], expected: List[Tuple[int, dict]]
) -> bool:
    if [origin for origin, _ in got] != [origin for origin, _ in expected]:
        return False
    for (_, got_cars), (_, expected_cars) in zip(got, expected):
        if set(got_cars) != set(expected_cars):
            return False
        for car_id in got_cars:
            if not np.array_equal(got_cars[car_id], expected_cars[car_id]):
                return False
    return True


def _in_process_stream(directory: str, race) -> List[Tuple[int, dict]]:
    """The fault-free reference: the race replayed in process by
    :func:`~repro.serving.sessions.replay_race` with the chaos session's settings."""
    return list(replay_race(ArtifactStore(directory).load_model(MODEL_NAME), race, **_SESSION))


def _gate_retry_identity(directory: str, port: int, series) -> bool:
    """Gate 1: faulted-and-retried forecast == fault-free forecast, bitwise."""
    forecaster = ForecastService(ArtifactStore(directory)).load(MODEL_NAME).forecaster
    batch = _named_batch(forecaster, series)

    clean_client = ForecastClient(port=port)  # no retry: ordinal 0 is clean
    reference = clean_client.forecast(batch)

    chaos_client = ForecastClient(
        port=port,
        retry=RETRY,
        faults=FaultPlan([FaultSpec(kind="drop", route=r"POST /v1/forecast", at=0)]),
    )
    faulted = chaos_client.forecast(batch)

    if len(faulted) != len(reference) or any(
        not np.array_equal(got, expected) for got, expected in zip(faulted, reference)
    ):
        print("FAIL: retried forecast under faults differs from the fault-free run")
        return False
    hits = clean_client.health()["idempotency"]["hits"]
    if hits < 1:
        print(f"FAIL: expected the dropped response to be deduped (hits={hits})")
        return False
    print(
        f"OK: client drop + injected 503 + dropped response + delay retried to "
        f"{len(reference)} bitwise-equal forecasts (idempotency hits={hits})"
    )
    return True


def _gate_crash_recovery(directory: str, config_path: str, process, port: int, race):
    """Gate 2: SIGKILL mid-session, restart, journal-recovered byte-identity.

    Returns ``(ok, process, port)`` — the caller owns the restarted server.
    """
    client = ForecastClient(port=port, retry=RETRY)
    session = client.open_session(
        MODEL_NAME, event=race.event, year=race.year, delay=4, **_SESSION
    )
    streamed: List[Tuple[int, dict]] = []
    laps = dict(race.iter_laps())
    kill_response: List[Tuple[int, dict]] = []
    for lap in sorted(laps):
        if lap > KILL_AT_LAP:
            break
        kill_response = session.lap(lap, laps[lap])
        streamed.extend(kill_response)

    process.kill()  # SIGKILL: no drain, no journal close, no goodbye
    process.wait()
    print(f"OK: gateway SIGKILLed after lap {KILL_AT_LAP} acknowledged")

    process, port = _spawn(config_path)
    revived = ForecastClient(port=port, retry=RETRY)
    health = revived.health()
    if health.get("sessions_recovered") != 1 or health.get("recovery_errors"):
        print(f"FAIL: restarted gateway did not recover the session: {health}")
        return False, process, port

    resumed = LiveSessionClient(revived, session.session_id)
    # an unsure client re-posts the lap it never saw acknowledged: the
    # journal-recovered session must replay it without re-advancing state
    replayed = resumed.lap(KILL_AT_LAP, laps[KILL_AT_LAP])
    if not _emissions_equal(replayed, kill_response):
        print("FAIL: duplicate lap replay differs from the pre-crash response")
        return False, process, port
    for lap in sorted(laps):
        if lap > KILL_AT_LAP:
            streamed.extend(resumed.lap(lap, laps[lap]))
    streamed.extend(resumed.close())

    reference = _in_process_stream(directory, race)
    if not _emissions_equal(streamed, reference):
        print("FAIL: recovered session forecasts differ from the in-process stream")
        return False, process, port

    leftovers = [
        name
        for name in os.listdir(journal_dir(directory))
        if name.endswith(JOURNAL_SUFFIX)
    ]
    if leftovers:
        print(f"FAIL: clean close left journals behind: {leftovers}")
        return False, process, port
    cars = sum(len(forecasts) for _, forecasts in streamed)
    print(
        f"OK: journal recovery stitched {len(streamed)} origins ({cars} "
        f"car-forecasts) byte-identically across the SIGKILL"
    )
    return True, process, port


def _gate_lap_replay(directory: str, port: int, race) -> bool:
    """Gate 4: a lap whose response was lost replays from its session, bitwise."""
    client = ForecastClient(port=port, retry=RETRY, faults=FaultPlan([LAP_DROP]))
    cache_before = client.health()["idempotency"]
    session = client.open_session(
        MODEL_NAME, event=race.event, year=race.year, delay=4, **_SESSION
    )
    streamed: List[Tuple[int, dict]] = []
    laps = list(race.iter_laps())
    for lap, records in laps:
        streamed.extend(session.lap(lap, records))
    observed = next(
        s["laps_observed"] for s in client.sessions() if s["session"] == session.session_id
    )
    streamed.extend(session.close())
    cache = client.health()["idempotency"]

    if client.faults.fired != 1:
        print(f"FAIL: the lap-response drop fired {client.faults.fired} times, not once")
        return False
    if not _emissions_equal(streamed, _in_process_stream(directory, race)):
        print("FAIL: the session with a retried lap differs from the fault-free stream")
        return False
    if observed != len(laps):
        print(f"FAIL: {len(laps)} laps posted but the session observed {observed}")
        return False
    # only the keyed open was stored, and no lap retry was a cache hit
    stored = cache["stored"] - cache_before["stored"]
    hits = cache["hits"] - cache_before["hits"]
    if (stored, hits) != (1, 0):
        print(f"FAIL: laps reached the idempotency cache (stored={stored}, hits={hits})")
        return False
    print(
        f"OK: lap {KILL_AT_LAP}'s lost response was replayed by its session; "
        f"{len(streamed)} origins bitwise equal to the fault-free stream, "
        f"no lap document cached"
    )
    return True


def _gate_bounded_overload(directory: str, port: int, series, workers: int) -> bool:
    """Gate 3: concurrent callers past ``max_inflight=1`` all finish, bounded."""
    forecaster = ForecastService(ArtifactStore(directory)).load(MODEL_NAME).forecaster
    batch = _named_batch(forecaster, series)
    latencies: List[Optional[float]] = [None] * workers
    errors: List[Optional[str]] = [None] * workers

    def call(index: int) -> None:
        client = ForecastClient(
            port=port,
            retry=RetryPolicy(
                max_attempts=10, base_delay_s=0.05, max_delay_s=1.0, seed=index
            ),
        )
        started = time.monotonic()
        try:
            client.forecast(batch)
            latencies[index] = time.monotonic() - started
        except Exception as exc:  # noqa: BLE001 - gate reports, then fails
            errors[index] = f"{type(exc).__name__}: {exc}"

    threads = [threading.Thread(target=call, args=(i,)) for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    failed = [error for error in errors if error]
    if failed:
        print(f"FAIL: {len(failed)}/{workers} overloaded calls never completed: {failed[0]}")
        return False
    worst = max(latency for latency in latencies if latency is not None)
    if worst > OVERLOAD_LATENCY_CEILING_S:
        print(f"FAIL: overload tail latency {worst:.2f}s exceeds the ceiling")
        return False
    rejected = ForecastClient(port=port).health()["admission"]["rejected"]
    if rejected < 1:
        print(f"FAIL: admission control never shed load (rejected={rejected})")
        return False
    print(
        f"OK: {workers} concurrent callers vs max_inflight=1 all completed "
        f"(rejected={rejected} shed, worst latency {worst:.2f}s <= "
        f"{OVERLOAD_LATENCY_CEILING_S:.0f}s)"
    )
    return True


def _worker_entry(client: ForecastClient):
    health = client.health()
    entry = next(
        (w for w in health.get("workers", []) if w["model"] == MODEL_NAME), None
    )
    return entry, health


def _gate_worker_kill_failover(directory: str, port: int, race) -> bool:
    """Gate 5: a SIGKILLed replica's live session fails over byte-identically."""
    client = ForecastClient(port=port, retry=RETRY)
    entry, _ = _worker_entry(client)
    if entry is None or entry["state"] != "live":
        print(f"FAIL: worker-mode gateway reports no live replica: {entry}")
        return False
    pid_before = entry["pid"]

    session = client.open_session(
        MODEL_NAME, event=race.event, year=race.year, delay=4, **_SESSION
    )
    streamed: List[Tuple[int, dict]] = []
    for lap, records in race.iter_laps():
        streamed.extend(session.lap(lap, records))
    streamed.extend(session.close())

    reference = _in_process_stream(directory, race)
    if not _emissions_equal(streamed, reference):
        print("FAIL: session forecasts across the worker kill differ from the clean run")
        return False

    entry, health = _worker_entry(client)
    if entry is None or entry["state"] != "live" or entry["restarts"] < 1:
        print(f"FAIL: the killed replica never restarted: {entry}")
        return False
    if entry["pid"] == pid_before:
        print(f"FAIL: replica pid {pid_before} survived its own SIGKILL")
        return False
    if health.get("sessions_recovered", 0) < 1 or health.get("recovery_errors"):
        print(f"FAIL: the live session was not journal-failed-over: {health}")
        return False
    leftovers = [
        name
        for name in os.listdir(journal_dir(directory))
        if name.endswith(JOURNAL_SUFFIX)
    ]
    if leftovers:
        print(f"FAIL: clean close left journals behind: {leftovers}")
        return False
    cars = sum(len(forecasts) for _, forecasts in streamed)
    print(
        f"OK: worker SIGKILLed at lap {KILL_AT_LAP} (pid {pid_before} -> "
        f"{entry['pid']}), session failed over and streamed {len(streamed)} "
        f"origins ({cars} car-forecasts) byte-identically"
    )
    return True


def _gate_worker_hang_heartbeat(directory: str, port: int, series) -> bool:
    """Gate 6: a SIGSTOPped replica misses heartbeats, is killed, and recovers."""
    service = ForecastService(ArtifactStore(directory))
    forecaster = service.load(MODEL_NAME).forecaster
    reference = service.submit(_named_batch(forecaster, series))

    client = ForecastClient(port=port, retry=RETRY)
    got = client.forecast(_named_batch(forecaster, series))  # ordinal 0: SIGSTOP lands
    if len(got) != len(reference) or any(
        not np.array_equal(got_one, expected)
        for got_one, expected in zip(got, reference)
    ):
        print("FAIL: forecast through the hang window differs from in-process submit")
        return False
    entry, health = _worker_entry(client)
    kills = (health.get("worker_pool") or {}).get("heartbeat_kills", 0)
    if kills < 1:
        print(f"FAIL: the heartbeat monitor never killed the hung replica: {health}")
        return False
    if entry is None or entry["state"] != "live":
        print(f"FAIL: the hung replica never came back: {entry}")
        return False
    print(
        f"OK: SIGSTOPped replica missed its heartbeat deadline, was killed "
        f"(heartbeat_kills={kills}) and the retried forecast returned "
        f"{len(got)} bitwise-equal results"
    )
    return True


def pid_running(pid: int) -> bool:
    """True while ``pid`` runs; an exited orphan left as a zombie counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            state = fh.read().rsplit(b")", 1)[1].split()[0]
    except OSError:
        return True  # no /proc to tell a zombie from a running process
    return state != b"Z"


def port_bindable(host: str, port: int) -> bool:
    """True when a fresh listener (``SO_REUSEADDR``, as the gateway's) can take the port."""
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((host, port))
            sock.listen(1)
        except OSError:
            return False
    return True


def kill_gateway(process, client: ForecastClient, deadline_s: float):
    """SIGKILL a worker-mode gateway; returns ``(replica pids, orphans, port free)``.

    ``orphans`` lists the replicas still running ``deadline_s`` after the
    kill; the port is probed the moment the gateway has been reaped.
    """
    pids = [w["pid"] for w in client.health().get("workers", []) if w.get("pid")]
    process.kill()
    process.wait()
    port_free = port_bindable(client.host, client.port)
    give_up_at = time.monotonic() + deadline_s
    while any(pid_running(pid) for pid in pids) and time.monotonic() < give_up_at:
        time.sleep(0.02)
    return pids, [pid for pid in pids if pid_running(pid)], port_free


def _gate_gateway_kill(process, port: int) -> bool:
    """Gate 7: a SIGKILLed gateway takes its replicas and its port with it."""
    deadline_s = 2 * WORKER_HEARTBEAT_TIMEOUT_S
    pids, orphans, port_free = kill_gateway(process, ForecastClient(port=port), deadline_s)
    if not pids:
        print("FAIL: the worker-mode gateway reported no replica pids")
        return False
    if orphans:
        print(f"FAIL: replicas {orphans} outlived their SIGKILLed gateway by {deadline_s}s")
        return False
    if not port_free:
        print(f"FAIL: port {port} could not be bound right after the gateway died")
        return False
    print(
        f"OK: gateway SIGKILLed; replicas {pids} exited within {deadline_s:.0f}s "
        f"and port {port} was free at once"
    )
    return True


def _run_core(args, race, series) -> int:
    config_path = _write_config(args.dir)
    print("starting repro-serve under the fault plan...", flush=True)
    process, port = _spawn(config_path)
    try:
        if not _gate_retry_identity(args.dir, port, series[0]):
            return 1
        ok, process, port = _gate_crash_recovery(
            args.dir, config_path, process, port, race
        )
        if not ok:
            return 1
        if not _gate_bounded_overload(args.dir, port, series[0], args.overload_workers):
            return 1
        if not _gate_lap_replay(args.dir, port, race):
            return 1
        print("chaos harness: all gates passed")
        return 0
    finally:
        process.kill()
        process.wait()


def _run_workers(args, race, series) -> int:
    config_path = _write_worker_config(args.dir)
    print("starting repro-serve with a supervised worker pool...", flush=True)
    process, port = _spawn(config_path)
    try:
        if not _gate_worker_kill_failover(args.dir, port, race):
            return 1
        if not _gate_worker_hang_heartbeat(args.dir, port, series[0]):
            return 1
        if not _gate_lap_replay(args.dir, port, race):
            return 1
        if not _gate_gateway_kill(process, port):
            return 1
        print("chaos harness (workers profile): all gates passed")
        return 0
    finally:
        process.kill()
        process.wait()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Serving-tier chaos harness")
    parser.add_argument("--dir", required=True, help="scratch directory for store + config")
    parser.add_argument(
        "--profile",
        choices=("core", "workers"),
        default="core",
        help="gate set: 'core' (retry/crash/lap replay/overload) or 'workers' "
        "(worker-kill failover, hang detection, lap replay, gateway kill); "
        "default core",
    )
    parser.add_argument(
        "--overload-workers",
        type=int,
        default=6,
        help="concurrent callers for the overload gate (default 6)",
    )
    args = parser.parse_args(argv)
    os.makedirs(args.dir, exist_ok=True)

    print("fitting the chaos model into a scratch artifact store...", flush=True)
    start = time.perf_counter()
    race, series = _fit_store(args.dir)
    if args.profile == "workers":
        rc = _run_workers(args, race, series)
    else:
        rc = _run_core(args, race, series)
    from .report import write_bench_json

    wall_ms = round(1e3 * (time.perf_counter() - start), 2)
    rows = [
        {
            "workload": f"chaos-{args.profile}",
            "wall_ms": wall_ms,
            "speedup": None,
            "passed": rc == 0,
        }
    ]
    print(f"wrote {write_bench_json(f'chaos_{args.profile}', rows)}")
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
