"""``make bench-pairs`` with a stub ``PYTHON``: its run directory never outlives it.

The stub stands in for both ``perfbench/run.py`` (one result line per run)
and ``tools/bench_compare.py`` (it records the JSONL paths it was handed),
so the target's shell plumbing runs in well under a second.
"""

import os
import pathlib
import shutil
import subprocess

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]

STUB = """#!/bin/sh
case "$1" in
  *bench_compare.py) shift; for f in "$@"; do echo "$f $(wc -l < "$f")"; done > "{log}"; exit 0 ;;
  *) [ -n "$STUB_FAIL" ] && exit 1; echo "warming up"; echo '{{"correct": true}}' ;;
esac
"""

pytestmark = pytest.mark.skipif(shutil.which("make") is None, reason="make is not installed")


def run_target(tmp_path, fail=False):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    log = tmp_path / "compared.txt"
    stub = tmp_path / "python-stub"
    stub.write_text(STUB.format(log=log))
    stub.chmod(0o755)
    env = {"PATH": os.environ["PATH"], "TMPDIR": str(tmpdir)}
    if fail:
        env["STUB_FAIL"] = "1"
    proc = subprocess.run(
        ["make", "-s", "-C", str(REPO), "bench-pairs", f"PARENT={tmp_path}",
         "PAIRS=3", "SECONDS=1", f"PYTHON={stub}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    return proc, tmpdir, log


def test_bench_pairs_removes_its_run_directory(tmp_path):
    proc, tmpdir, log = run_target(tmp_path)
    assert proc.returncode == 0, proc.stderr
    compared = log.read_text().split()
    # both JSONL files sat in a run directory under TMPDIR, one line per pair
    assert compared[0].startswith(str(tmpdir)) and compared[0].endswith("parent.jsonl")
    assert compared[2].endswith("change.jsonl")
    assert compared[1] == compared[3] == "3"
    assert list(tmpdir.iterdir()) == []


def test_bench_pairs_removes_its_run_directory_when_a_run_fails(tmp_path):
    proc, tmpdir, log = run_target(tmp_path, fail=True)
    assert proc.returncode != 0
    assert not log.exists()
    assert list(tmpdir.iterdir()) == []
