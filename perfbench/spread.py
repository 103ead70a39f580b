"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py [--seeds 1-10] [--seconds 26] [--trace 0] [--out FILE] [workload ...]

The spread is the distance between the first and third quartiles of the
per-run values (``statistics.quantiles(values, n=4)``) as a share of their
median; it is what the metric's bound in BENCHMARK.json must cover.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    return {"result": json.loads(lines[-1]), "meta": meta, "elapsed_s": elapsed}


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in names:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        failed = sum(r["result"]["failed"] for r in runs)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = summarize(values)
            bound = bounds.get(name)
            flag = "" if bound is None or metrics[name]["spread"] < bound / 3 else "  <-- spread above bound/3"
            print(f"{workload:11s} {name:40s} median {metrics[name]['median']:12.6g}  "
                  f"spread {metrics[name]['spread']:7.2%}{flag}")  # fmt: skip
        ops = [r["result"]["attempted"] for r in runs]
        elapsed = [r["elapsed_s"] for r in runs]
        print(f"{workload:11s} ops per run {min(ops)}..{max(ops)}, failed ops {failed}, "
              f"run wall time {min(elapsed):.1f}..{max(elapsed):.1f} s", flush=True)  # fmt: skip
        report[workload] = {"seeds": args.seeds, "ops": ops, "failed": failed, "elapsed_s": elapsed,
                            "metrics": metrics, "meta": runs[0]["meta"]}  # fmt: skip
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
