"""Benchmark of the unitarity library: one workload, one JSON result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

W is one of bulk-env2, bulk-env4, du-n2, du-n4, du-n8, table1-cli.

Run from the repository root. The library is imported from ``src/``. The
lines printed before the last one name the numbers with their units and
sample counts; the last line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Spans of a traced run are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: the load is this one process, so the numbers measure the
# program rather than the scheduler of a two-core machine.
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def prepare_environment() -> None:
    """Pin BLAS to one thread and make ``src/`` importable.

    Must run before numpy is first imported; raises FileNotFoundError when
    the library's sources are not beside the benchmark.
    """
    if not (SRC / "unitarity" / "__init__.py").is_file():
        raise FileNotFoundError(f"library sources not found under {SRC}")
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        prepare_environment()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), SRC, OUT)
    for line in report.lines:
        print(line)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in report.metrics.items()}
    print(
        json.dumps(
            {
                "correct": report.correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
