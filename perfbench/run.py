"""Repository benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload forecast-gateway --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Human-readable lines come first; the last line
of standard output is the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("forecast-gateway", "live-race", "train")


def _pin_blas_threads() -> None:
    # before NumPy is first imported, here and (via the environment) in
    # every process the benchmark starts
    from perfbench.report import BLAS_THREAD_VARS, BLAS_THREADS

    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no source tree at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    _pin_blas_threads()

    from perfbench import report

    if args.workload == "train":
        from perfbench import training as module
    else:
        from perfbench import serving as module

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        correct, attempted, failed, metrics = module.run(
            ROOT, args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run's directory is still in it
            pass
    info = dict(seed=args.seed, seconds=args.seconds, **report.provenance(ROOT))
    report.print_report(args.workload, bool(args.trace), metrics, info)
    print(report.json_result(correct, attempted, failed, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
