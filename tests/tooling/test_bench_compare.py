"""``tools/bench_compare.py`` on synthetic ``perfbench/run.py`` result lines."""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("bench_compare", REPO / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

SPECS = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
BASE = {
    "setup_s": 1.4,
    "op_p50_ms": 40.0,
    "op_tail_ms": 50.0,
    "ops_per_s": 25.0,
    "peak_rss_mb": 150.0,
    "ops_ok_share": 1.0,
}


def run_line(correct=True, **overrides):
    values = dict(BASE, **overrides)
    return json.dumps({
        "correct": correct,
        "attempted": 100,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()},
    })


def verdicts(parent, change):
    rows = bench_compare.compare(SPECS, [json.loads(line) for line in parent],
                                 [json.loads(line) for line in change])
    return {row["name"]: row for row in rows}


def write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_gain_needs_nine_of_ten_wins_beyond_the_parent_iqr():
    parent = [run_line(op_p50_ms=40.0 + 0.2 * i) for i in range(10)]
    change = [run_line(op_p50_ms=34.0 + 0.2 * i) for i in range(10)]
    row = verdicts(parent, change)["op_p50_ms"]
    assert row["wins"] == 10 and row["verdict"] == "gain"
    assert row["parent_median"] == pytest.approx(40.9)
    assert row["relative"] < -0.14

    # the same shift inside a wide parent spread is not a gain
    wide = [run_line(op_p50_ms=40.0 + 3.0 * i) for i in range(10)]
    shifted = [run_line(op_p50_ms=34.0 + 3.0 * i) for i in range(10)]
    assert verdicts(wide, shifted)["op_p50_ms"]["verdict"] == "-"

    # eight wins out of ten is not a gain either
    change[0] = run_line(op_p50_ms=45.0)
    change[1] = run_line(op_p50_ms=45.0)
    row = verdicts(parent, change)["op_p50_ms"]
    assert row["wins"] == 8 and row["verdict"] == "-"


def test_regression_beyond_the_bound_fails_the_comparison(tmp_path, capsys):
    parent = [run_line(peak_rss_mb=150.0) for _ in range(4)]
    inside = [run_line(peak_rss_mb=160.0) for _ in range(4)]  # +6.7%, bound 0.1
    outside = [run_line(peak_rss_mb=170.0) for _ in range(4)]  # +13%
    assert verdicts(parent, inside)["peak_rss_mb"]["verdict"] == "-"
    assert verdicts(parent, outside)["peak_rss_mb"]["verdict"] == "regression"

    p = write(tmp_path, "parent.jsonl", parent)
    assert bench_compare.main([p, write(tmp_path, "inside.jsonl", inside)]) == 0
    assert bench_compare.main([p, write(tmp_path, "outside.jsonl", outside)]) == 1
    assert "regression in peak_rss_mb" in capsys.readouterr().err


def test_higher_is_better_metrics_win_upwards():
    parent = [run_line(ops_per_s=25.0 + 0.1 * i) for i in range(10)]
    faster = [run_line(ops_per_s=30.0 + 0.1 * i) for i in range(10)]
    slower = [run_line(ops_per_s=15.0 + 0.1 * i) for i in range(10)]
    row = verdicts(parent, faster)["ops_per_s"]
    assert row["wins"] == 10 and row["verdict"] == "gain"
    row = verdicts(parent, slower)["ops_per_s"]
    assert row["wins"] == 0 and row["verdict"] == "regression"
    # two failed ops in a hundred break the 0.01 ops_ok_share bound
    row = verdicts(parent, [run_line(ops_ok_share=0.98) for _ in range(10)])["ops_ok_share"]
    assert row["verdict"] == "regression"


def test_mismatched_files_and_incorrect_runs_fail(tmp_path, capsys):
    parent = write(tmp_path, "parent.jsonl", [run_line() for _ in range(3)])
    short = write(tmp_path, "short.jsonl", [run_line() for _ in range(2)])
    assert bench_compare.main([parent, short]) == 1
    assert "need equal, non-zero pair counts" in capsys.readouterr().err

    wrong = write(tmp_path, "wrong.jsonl", [run_line(), run_line(correct=False), run_line()])
    assert bench_compare.main([parent, wrong]) == 1
    assert "change runs not correct on lines [2]" in capsys.readouterr().err

    assert bench_compare.main([parent, parent]) == 0
    out = capsys.readouterr().out
    assert all(spec["name"] in out for spec in SPECS)
