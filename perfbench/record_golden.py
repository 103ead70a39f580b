"""Record the golden outputs the correctness gate compares against.

    python3 perfbench/record_golden.py [workload ...]

Runs every pool item of each workload once at ``gate.GOLDEN_SEED``, refuses to
record when any seed-independent check fails, and writes
``perfbench/golden/<workload>.json``.  Re-record only when the program's
intended outputs change, and say why in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run as entry  # perfbench/run.py: pins BLAS threads and finds src/


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workloads", nargs="*", metavar="workload", help="default: all")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(entry.WORKLOAD_NAMES))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {list(entry.WORKLOAD_NAMES)}")
    sys.path[:0] = [str(entry.SRC), str(entry.HERE)]
    from qlllbench import gate, harness
    from qlllbench.workloads import WORKLOADS

    for name in args.workloads or list(WORKLOADS):
        workload = WORKLOADS[name]
        workdir = harness.OUT_DIR / "golden-work"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.mkdir(parents=True)
            pool = workload.build_pool(gate.GOLDEN_SEED, workdir)
            run = harness.Run(workload, pool)
            for index in range(len(pool)):
                run.op(index)
            failed, messages = gate.check(workload, pool, run.records, run.item_errors, None)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if failed:
            print("\n".join(messages), file=sys.stderr)
            return 1
        items = {pool[i].id: workload.golden_view(summary) for i, summary, _ in run.records}
        path = gate.GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps({"seed": gate.GOLDEN_SEED, "items": items}, indent=1) + "\n", encoding="utf-8")
        print(f"{name}: {len(items)} items -> {path.relative_to(entry.HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
