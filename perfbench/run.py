"""qlll benchmark: one workload per invocation, last stdout line is the JSON result.

    python3 perfbench/run.py --workload check-d3 --seed 1 --seconds 26 --trace 0

Workloads: check-d3, search-d64, sample-d16, cli.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The program under test
is the ``src/qlll`` package of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("check-d3", "search-d64", "sample-d16", "cli")

# One client, one BLAS thread: pinned before numpy is first imported, and
# inherited by the CLI processes the cli workload starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qlll" / "__init__.py").is_file():
        print(f"error: no qlll package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import qlll

    if Path(qlll.__file__).resolve().parent != SRC / "qlll":
        print(f"error: imported qlll from {qlll.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from qlllbench import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
