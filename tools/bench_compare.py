#!/usr/bin/env python
"""Compare paired benchmark runs of a parent and a change (stdlib only).

Each line of the two files is the last stdout line of one
``perfbench/run.py`` run (its JSON result).  Line *i* of the parent file
and line *i* of the change file form pair *i*, so run the two sides
alternately on the same seeds.

Usage::

    python tools/bench_compare.py PARENT.jsonl CHANGE.jsonl

For every end-to-end metric declared in ``BENCHMARK.json`` the report
gives the parent median and IQR, the change median, the relative change
and the pairs the change won.  A metric is a **gain** when the change wins
at least 90% of the pairs and the medians differ by more than the parent's
IQR; it is a **regression** when its median worsens by more than the
metric's ``bound``.  The exit status is 1 on any regression, on a run
whose result is ``"correct": false``, or when the files hold different
numbers of runs; 0 otherwise.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics
import sys
from typing import List, Sequence

REPO = pathlib.Path(__file__).resolve().parents[1]
GAIN_WIN_SHARE = 0.9


def quartiles(values: Sequence[float]):
    """(q1, median, q3), linearly interpolated as ``numpy.percentile``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare_metric(spec: dict, parent: Sequence[float], change: Sequence[float]) -> dict:
    """Summarise one metric over paired runs; ``spec`` is its BENCHMARK.json entry."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    delta = c_med - p_med
    if p_med:
        relative = delta / abs(p_med)
    else:
        relative = math.copysign(math.inf, delta) if delta else 0.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gain = wins >= GAIN_WIN_SHARE * len(parent) and abs(delta) > q3 - q1 and sign * delta < 0
    regression = sign * relative > spec["bound"]
    return {
        "name": spec["name"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent_median": p_med,
        "parent_iqr": (q1, q3),
        "change_median": c_med,
        "relative": relative,
        "wins": wins,
        "pairs": len(parent),
        "verdict": "regression" if regression else ("gain" if gain else "-"),
    }


def compare(specs: Sequence[dict], parent: Sequence[dict], change: Sequence[dict]) -> List[dict]:
    """One :func:`compare_metric` row per declared end-to-end metric."""
    rows = []
    for spec in specs:
        name = spec["name"]
        rows.append(
            compare_metric(
                spec,
                [run["metrics"][name]["value"] for run in parent],
                [run["metrics"][name]["value"] for run in change],
            )
        )
    return rows


def read_runs(path: str) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def render(rows: Sequence[dict]) -> str:
    lines = [
        f"{'metric':<14} {'better':<6} {'bound':>5}  {'parent median [IQR]':<30} "
        f"{'change':>10} {'rel':>8} {'wins':>6}  verdict"
    ]
    for row in rows:
        q1, q3 = row["parent_iqr"]
        parent = f"{row['parent_median']:.4g} [{q1:.4g}-{q3:.4g}]"
        lines.append(
            f"{row['name']:<14} {row['better']:<6} {row['bound']:>5}  {parent:<30} "
            f"{row['change_median']:>10.4g} {row['relative']:>+8.1%} "
            f"{row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/bench_compare.py PARENT.jsonl CHANGE.jsonl", file=sys.stderr)
        return 2
    parent, change = read_runs(argv[0]), read_runs(argv[1])
    if not parent or len(parent) != len(change):
        print(
            f"bench_compare: need equal, non-zero pair counts: {len(parent)} parent runs, "
            f"{len(change)} change runs",
            file=sys.stderr,
        )
        return 1
    specs = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    rows = compare(specs, parent, change)
    print(render(rows))
    status = 0
    for side, runs in (("parent", parent), ("change", change)):
        lines = [i + 1 for i, run in enumerate(runs) if not run.get("correct", False)]
        if lines:
            print(f"bench_compare: {side} runs not correct on lines {lines}", file=sys.stderr)
            status = 1
    regressions = [row["name"] for row in rows if row["verdict"] == "regression"]
    if regressions:
        print(f"bench_compare: regression in {', '.join(regressions)}", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
