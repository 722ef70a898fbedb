"""Statistics, resource readings and the result document of one run."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import threading
from contextlib import contextmanager
from statistics import median
from typing import Dict, List, Optional, Sequence

#: BLAS/OpenMP thread-count variables pinned to 1 for the benchmark and
#: every process it starts: a free thread count lets the BLAS pool race
#: the gateway, its worker and the client for the host's two cores.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
BLAS_THREADS = "1"

#: fewest samples a reported tail percentile must leave beyond it
TAIL_BEYOND = 10
#: percentile reported once a run holds this many ops
TAIL_FULL_OPS = 100
TAIL_FULL_PERCENTILE = 90.0


def tail_percentile(n: int) -> float:
    """The tail percentile for ``n`` ops.

    p90 once ``n >= 100``; otherwise the highest whole percentile that
    leaves at least ten samples beyond it, and never below the median
    (with fewer than 20 ops no percentile above p50 qualifies).
    """
    if n >= TAIL_FULL_OPS:
        return TAIL_FULL_PERCENTILE
    if n <= 0:
        return 50.0
    p = math.floor(100.0 * (1.0 - TAIL_BEYOND / n) + 1e-9)
    return float(max(50, min(p, int(TAIL_FULL_PERCENTILE))))


def median_ms(seconds) -> float:
    """Median of durations in seconds, in ms; 0 when there are none."""
    seconds = list(seconds)
    return median(seconds) * 1e3 if seconds else 0.0


def metric(value: float, unit: str, samples: Optional[int] = None, **extra) -> dict:
    entry = {"value": float(value), "unit": unit}
    if samples is not None:
        entry["samples"] = int(samples)
    entry.update(extra)
    return entry


def end_to_end(
    latencies_s: Sequence[float],
    wall_s: float,
    setup_s: Sequence[float],
    peak_rss_mb: float,
    ok: int,
    attempted: int,
) -> Dict[str, dict]:
    """The six end-to-end metrics shared by every workload."""
    import numpy as np

    ms = [value * 1e3 for value in latencies_s]
    tail = tail_percentile(len(ms))
    return {
        "setup_s": metric(median(setup_s), "s", len(setup_s)),
        "op_p50_ms": metric(median(ms), "ms", len(ms)),
        "op_tail_ms": metric(float(np.percentile(ms, tail)), "ms", len(ms), percentile=tail),
        "ops_per_s": metric(len(ms) / wall_s, "1/s", len(ms)),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "ops_ok_share": metric(ok / attempted if attempted else 0.0, "ratio", attempted),
    }


def trace_overhead(*op_sets) -> dict:
    """Tracing overhead of one op of the workload (ms): per set of
    interleaved ops, the traced minus the untraced median latency, summed
    over the sets (one set per kind of call the traced run times)."""
    total, samples = 0.0, 0
    for ops in op_sets:
        traced, untraced = ops.latencies(True), ops.latencies(False)
        if traced and untraced:
            total += median(traced) - median(untraced)
            samples += len(traced)
    return metric(total * 1e3, "ms", samples)


# ----------------------------------------------------------------------
# resources
# ----------------------------------------------------------------------
def _status_kb(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def process_tree(pid: int) -> List[int]:
    """``pid`` and its live descendants (Linux ``/proc``)."""
    found = [pid]
    index = 0
    while index < len(found):
        current = found[index]
        index += 1
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children", encoding="ascii") as fh:
                    found.extend(int(child) for child in fh.read().split())
        except OSError:
            continue
    return found


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak resident set (VmHWM) of a process and its descendants."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            total_kb += _status_kb(member, "VmHWM")
        except OSError:
            continue
    return total_kb / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def blas_config() -> dict:
    import numpy as np

    config = {"thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        config.update(name=deps.get("name"), version=deps.get("version"))
    except (TypeError, KeyError):  # older NumPy without mode="dicts"
        pass
    return config


def source_digest(root: str) -> str:
    """sha256 over ``src/`` (path + bytes of every file), in path order."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    paths = []
    for directory, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        paths.extend(os.path.join(directory, name) for name in files if not name.endswith(".pyc"))
    for path in sorted(paths):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def git_sha(root: str) -> Optional[str]:
    # a checkout without .git has no sha of its own (git would report an
    # enclosing repository's)
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: str) -> dict:
    from repro.profiling.report import host_fingerprint

    return {
        "host": host_fingerprint(),
        "blas": blas_config(),
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "python": sys.executable,
    }


def print_report(workload: str, trace: bool, metrics: Dict[str, dict], info: dict) -> None:
    """Human-readable lines (the JSON result line follows them)."""
    print(f"# perfbench {workload} ({'traced' if trace else 'untraced'})")
    for name, entry in metrics.items():
        extra = ""
        if "samples" in entry:
            extra += f"  n={entry['samples']}"
        if "percentile" in entry:
            extra += f"  p{entry['percentile']:g}"
        print(f"  {name:<30} {entry['value']:>14.4f} {entry['unit']:<6}{extra}")
    print("# info " + json.dumps(info, sort_keys=True))


def json_result(correct: bool, attempted: int, failed: int, metrics: Dict[str, dict]) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in metrics.items()
            },
        }
    )


@contextmanager
def watchdog(process: subprocess.Popen, seconds: float):
    """Kill ``process`` if the block has not finished within ``seconds``
    (a child that hangs before reporting ready must not hang the run)."""
    timer = threading.Timer(seconds, process.kill)
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


def subprocess_env(root: str) -> dict:
    """Environment for every child: source tree on the path, BLAS pinned."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, root, env.get("PYTHONPATH")) if p)
    for var in BLAS_THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


#: every per-layer metric of a traced run, with its unit.  A metric a
#: workload does not exercise reads 0 (README.md lists where each applies).
PER_LAYER = {
    "client.roundtrip_ms": "ms",
    "wire.encode_ms": "ms",
    "wire.decode_ms": "ms",
    "wire.request_kb": "kB",
    "wire.response_kb": "kB",
    "gateway.handle_ms": "ms",
    "gateway.self_ms": "ms",
    "http.overhead_ms": "ms",
    "scheduler.requests_per_batch": "count",
    "service.submit_ms": "ms",
    "service.self_ms": "ms",
    "engine.warmup_ms": "ms",
    "engine.decode_ms": "ms",
    "engine.warmup_steps": "count",
    "engine.decode_steps": "count",
    "engine.cache_hit_share": "ratio",
    "engine.gemm_row_fill": "ratio",
    "sessions.observe_lap_ms": "ms",
    "features.observe_lap_ms": "ms",
    "journal.record_lap_ms": "ms",
    "journal.compact_ms": "ms",
    "workers.pipe_ms": "ms",
    "laps.emitting_share": "ratio",
    "data.make_windows_ms": "ms",
    "trainer.fit_ms": "ms",
    "trainer.self_ms": "ms",
    "nn.loss_and_backward_ms": "ms",
    "nn.optimizer_step_ms": "ms",
    "nn.batches": "count",
    "pit.fit_ms": "ms",
    "pit.steps": "count",
    "attention.forward_ms": "ms",
    "attention.backward_ms": "ms",
    "forecaster.self_ms": "ms",
    "setup.import_ms": "ms",
    "artifacts.load_ms": "ms",
    "workers.spawn_ms": "ms",
    "trace.overhead_ms": "ms",
}


def per_layer(measured: Dict[str, dict]) -> Dict[str, dict]:
    """All per-layer metrics in registry order; unmeasured ones read 0."""
    unknown = sorted(set(measured) - set(PER_LAYER))
    if unknown:
        raise KeyError(f"unregistered per-layer metric(s): {unknown}")
    result = {}
    for name, unit in PER_LAYER.items():
        entry = measured.get(name, metric(0.0, unit, 0))
        if entry["unit"] != unit:
            raise ValueError(f"{name}: unit {entry['unit']!r} != registered {unit!r}")
        result[name] = entry
    return result
