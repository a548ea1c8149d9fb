"""Run one workload of the wall-clock FIB benchmark.

    python3 fibbench/run.py --workload walk-uniform --seed 1 --seconds 10 --trace 0

Prints every metric by name and unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``. Exits
1 when any served label disagrees with the oracle, an operation fails or
the plane leaks a segment or a process; exits 2 when the repository's
``src/`` tree is missing.

The imports of this file stay in the standard library: the worker pool
starts its processes with ``spawn``, which re-imports this module.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="FIB profile scale (default 0.05; smaller for smoke tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    options = {} if args.scale is None else {"scale": args.scale}
    result = bench.run(args.workload, seed=args.seed, seconds=args.seconds,
                       trace=bool(args.trace), **options)
    for line in result.lines:
        print(line)
    print(json.dumps(result.record), flush=True)
    return 0 if result.record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
