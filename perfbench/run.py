"""Benchmark entry point.

    python3 perfbench/run.py --workload translates_large --seed 1 --seconds 30 --trace 0

Prints one provenance line and, as the last line of standard output, the
result object {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_environment() -> None:
    """One BLAS/OpenMP thread and no caps override; must precede numpy."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("CONVEX_CHROMA_CAPS", None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", default=None, metavar="DIR",
                        help="time one cold set-up into DIR and print it (used by the runner)")
    args = parser.parse_args(argv)

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})")
    if args.setup_only:
        *_, seconds = harness.setup(args.workload, args.seed, harness.Path(args.setup_only))
        print(json.dumps({"setup_s": seconds}))
        return 0
    result, prov = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
