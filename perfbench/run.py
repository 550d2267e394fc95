#!/usr/bin/env python3
"""Run one cnets benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload tsp-colony --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from --seed into a temporary
directory in the repository root. Operations then run one after another
(a closed loop, one `build_config` plus `harness.execute` at a time, the
`cnets run` path) for --seconds, and every record file they write is
checked. --trace 0 times the operations untraced and reports the
end-to-end metrics; --trace 1 alternates untraced and traced operations
and reports the per-layer metrics. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it records the machine, versions and sample counts.
"""
import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# One BLAS thread: operations run one at a time and the machine has few CPUs.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cnets", "__init__.py")):
        print(f"perfbench: no cnets sources in {src}", file=sys.stderr)
        return 2
    # before numpy loads, so its BLAS reads them
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]
    import measure

    if args.workload not in measure.workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(measure.workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    info, result = measure.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    info["blas_threads_requested"] = BLAS_THREADS
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
