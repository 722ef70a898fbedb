"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper through
``repro.experiments`` and prints its rows.  The ``bench_config`` fixture
selects a bounded configuration so the whole suite completes in minutes on
a laptop CPU; export ``REPRO_PROFILE=full`` to run the paper-scale profile
instead (hours).  Trained models and simulated races are cached inside
``repro.experiments.common`` for the lifetime of the pytest process, so
benchmarks that share a model zoo (Table V/VI, Fig. 2/8/9) only pay the
training cost once.

Each regenerated table is printed to the terminal (outside pytest's output
capture, so it is visible in a plain ``pytest benchmarks/ --benchmark-only``
run) and also written to ``<experiment>.txt`` by :func:`publish`, the one
writer every benchmark uses.  It writes into ``REPRO_BENCH_DIR``, the same
directory the ``BENCH_<name>.json`` sidecars resolve to.  A pytest session
points that variable at a session temp dir unless it is already set, so the
tier-1 run never rewrites the tracked files under ``benchmarks/results/``;
``make bench`` sets it to ``benchmarks/results`` to refresh them.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import sys

import pytest

from repro.experiments import full_config, quick_config
from repro.profiling.report import bench_output_dir

# pytest collects ``benchmarks/`` before ``tests/``: put ``tests/`` on the
# path here too, so benchmarks can import ``from reference.<module> ...``
TESTS_DIR = str(pathlib.Path(__file__).resolve().parent.parent / "tests")
if TESTS_DIR not in sys.path:
    sys.path.insert(0, TESTS_DIR)

_ACTIVE_CAPSYS = None


def _bench_profile():
    if os.environ.get("REPRO_PROFILE", "quick").lower() == "full":
        return full_config()
    # bounded benchmark profile: small enough to finish the full suite quickly,
    # large enough that the qualitative shape of each table/figure holds
    return quick_config().with_overrides(
        epochs=12,
        max_train_windows=2500,
        origin_stride=8,
        n_samples=20,
        ml_origin_stride=5,
        ml_max_instances=6000,
        rf_estimators=30,
        gbm_estimators=60,
    )


@pytest.fixture(scope="session")
def bench_config():
    return _bench_profile()


@pytest.fixture(scope="session", autouse=True)
def _bench_results_dir(tmp_path_factory):
    """Point ``REPRO_BENCH_DIR`` at a session temp dir unless already set."""
    with pytest.MonkeyPatch.context() as patch:
        if not os.environ.get("REPRO_BENCH_DIR"):
            patch.setenv("REPRO_BENCH_DIR", str(tmp_path_factory.mktemp("bench-results")))
        yield


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    """Let :func:`publish` emit tables outside pytest's output capture."""
    global _ACTIVE_CAPSYS
    _ACTIVE_CAPSYS = capsys
    yield
    _ACTIVE_CAPSYS = None


def publish(filename, text):
    """Write ``text`` to ``<REPRO_BENCH_DIR>/<filename>`` and print it."""
    path = pathlib.Path(bench_output_dir()) / filename
    path.write_text(text + "\n", encoding="utf-8")
    with _ACTIVE_CAPSYS.disabled() if _ACTIVE_CAPSYS is not None else contextlib.nullcontext():
        print()
        print(text)
    return path


def run_and_print(benchmark, fn, *args, **kwargs):
    """Run ``fn`` once under pytest-benchmark, then publish its table."""
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    filename = result.experiment_id.lower().replace(" ", "").replace(".", "") + ".txt"
    publish(filename, result.to_text())
    return result
