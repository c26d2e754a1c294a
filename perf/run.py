#!/usr/bin/env python3
"""Outside-in benchmark of the cafa pipeline.

Usage (from the repository root):

    python3 perf/run.py --workload covid-local --seed 1 --seconds 20 --trace 0

Runs one workload in this process on one thread, checks its outputs, and
prints one JSON object as the last line of standard output: ``correct``,
``attempted`` and ``failed`` operations (an operation is one explained
instance) and ``metrics``, each with its value and unit. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the traced variant and
reports the per-layer metrics. See perf/README.md.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perf-out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cafa" / "__init__.py").is_file():
        print(f"error: no cafa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), OUT, log=lambda s: print(s, flush=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
