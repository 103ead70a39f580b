"""Runs one workload as a closed loop with one client and reports its metrics.

Untraced runs (``--trace 0``) give the end-to-end metrics.  Traced runs
(``--trace 1``) alternate untraced and traced passes over the same ops and
give per-layer metrics per traced op, plus the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import qlll

from . import gate
from .tracing import SETUP, Tracer
from .workloads import ROOT, WORKLOADS

# set-ups per untraced run: one before the timed ops, the others spread
# evenly across them, so that their median does not rest on one moment
SETUP_REPS = 7
CLI_PROBES = 5  # interpreter and import probes per traced cli run
OUT_DIR = ROOT / "perfbench" / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _calls(name):
    return lambda t, ops: t.ops_stat(name)[0] / ops, "calls/op"


def _ms(name):
    return lambda t, ops: t.ops_stat(name)[1] / 1e6 / ops, "ms/op"


def _self_ms(name):
    return lambda t, ops: t.ops_stat(name)[2] / 1e6 / ops, "ms/op"


def _counter(key, unit, scale=1.0):
    return lambda t, ops: t.counters.get(key, 0) * scale / ops, unit


def _traj_per_s(t, ops):
    ns = t.ops_stat("oracle.sample_trajectories")[1]
    return t.counters.get("oracle.trajectories", 0) / (ns / 1e9) if ns else 0.0


def _accept_ratio(t, ops):
    candidates = t.counters.get("generate.search.candidates", 0)
    return t.counters.get("generate.search.accepted", 0) / candidates if candidates else 0.0


def _per_call(name):
    return lambda t, ops: t.per_call_ms(name), "ms/call"


# name -> (function of (tracer, traced ops), unit); a None function marks a
# metric the traced run measures itself
PER_LAYER = {
    "events.channel.calls": _calls("events.channel"),
    "events.channel.self_ms": _self_ms("events.channel"),
    "events.channel.gflop": _counter("events.channel.flop", "GFLOP/op", 1e-9),
    "events.measurement_eq.calls": _calls("events.measurement_eq"),
    "events.measurement_eq.self_ms": _self_ms("events.measurement_eq"),
    "events.super_operator_of.calls": _calls("events.super_operator_of"),
    "probability.assignment_init.calls": _calls("probability.assignment_init"),
    "probability.assignment_init.self_ms": _self_ms("probability.assignment_init"),
    "probability.pr_state.calls": _calls("probability.pr_state"),
    "probability.pr_state.self_ms": _self_ms("probability.pr_state"),
    "probability.pr_test_marginal.calls": _calls("probability.pr_test_marginal"),
    "probability.pr_test_cond.calls": _calls("probability.pr_test_cond"),
    "probability.cond_on_zero.count": _counter("probability.cond_on_zero.count", "count/op"),
    "independence.is_neg_independent.calls": _calls("independence.is_neg_independent"),
    "independence.compute_profile.calls": _calls("independence.compute_profile"),
    "independence.compute_profile.ms": _ms("independence.compute_profile"),
    "independence.compute_profile.self_ms": _self_ms("independence.compute_profile"),
    "independence.undefined_pairs": _counter("independence.undefined_pairs", "count/op"),
    "lll.check_general.ms": _ms("lll.check_general"),
    "lll.check_general.self_ms": _self_ms("lll.check_general"),
    "lll.check_symmetric.ms": _ms("lll.check_symmetric"),
    "oracle.sample_trajectories.ms": _ms("oracle.sample_trajectories"),
    "oracle.trajectories": _counter("oracle.trajectories", "traj/op"),
    "oracle.traj_per_s": (_traj_per_s, "1/s"),
    "oracle.enumerate_probability.ms": _ms("oracle.enumerate_probability"),
    "oracle.enumerated_trajectories": _counter("oracle.enumerated_trajectories", "traj/op"),
    "generate.generate.ms": _ms("generate.generate"),
    "generate.search.candidates": _counter("generate.search.candidates", "count/op"),
    "generate.search.accept_ratio": (_accept_ratio, "ratio"),
    "linalg.validate_density.calls": _calls("linalg.validate_density"),
    "linalg.validate_density.self_ms": _self_ms("linalg.validate_density"),
    "serialize.load_path.ms": _per_call("serialize.load_path"),
    "serialize.dumps.ms": _per_call("serialize.dumps"),
    "serialize.instance_bytes": (None, "bytes"),
    "cli.interpreter_ms": (None, "ms"),
    "cli.import_ms": (None, "ms"),
    "cli.main.ms": _ms("cli.main"),
    "trace.overhead_ratio": (None, "ratio"),
}


class Run:
    """Op records of one run; everything the gate and the metrics need."""

    def __init__(self, workload, pool):
        self.workload = workload
        self.pool = pool
        self.records = []  # (item index, summary, error) per op
        self.latencies = []  # seconds per op
        self.item_errors = {}  # item index -> gate.item_check of its first output
        self.paused_s = 0.0  # time spent between ops on checks and set-ups

    def op(self, index: int) -> float:
        """Run one op, record and check it, and return its latency in seconds."""
        item = self.pool[index]
        start = time.perf_counter()
        try:
            out = self.workload.run(item)
        except Exception as exc:  # a raising op is a failed op, counted by the gate
            elapsed = time.perf_counter() - start
            self.latencies.append(elapsed)
            self.records.append((index, None, f"raised {type(exc).__name__}: {exc}"))
            return elapsed
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        paused = time.perf_counter()
        if index not in self.item_errors:
            self.item_errors[index] = gate.item_check(self.workload, item, out)
        try:
            self.records.append((index, self.workload.summarize(item, out), None))
        except Exception as exc:
            self.records.append((index, None, f"summary raised {type(exc).__name__}: {exc}"))
        self.paused_s += time.perf_counter() - paused
        return elapsed

    def gate(self, seed: int) -> tuple[int, list[str]]:
        golden = gate.load_golden(self.workload.name) if seed == gate.GOLDEN_SEED else None
        return gate.check(self.workload, self.pool, self.records, self.item_errors, golden)


IMPORT_PROBE = "import time; t = time.perf_counter(); import qlll; print(time.perf_counter() - t)"


def import_probe_s() -> float:
    """Seconds a fresh interpreter takes to import qlll, as that interpreter measures it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, check=True,
                          timeout=60, capture_output=True, text=True)  # fmt: skip
    return float(proc.stdout.split()[-1])


def set_up(workload, seed: int, pool_dir: Path):
    """One set-up: import qlll in a fresh process, then build the pool in *pool_dir*.

    Returns the pool and the set-up time in seconds.
    """
    pool_dir.mkdir(parents=True)
    import_s = import_probe_s()
    start = time.perf_counter()
    pool = workload.build_pool(seed, pool_dir)
    return pool, import_s + time.perf_counter() - start


def run_untraced(workload, seed: int, seconds: float, workdir: Path):
    pool, first_setup_s = set_up(workload, seed, workdir / "setup-0")
    setup_times = [first_setup_s]
    run = Run(workload, pool)

    def another_set_up():
        paused = time.perf_counter()
        setup_times.append(set_up(workload, seed, workdir / f"setup-{len(setup_times)}")[1])
        run.paused_s += time.perf_counter() - paused

    workload.run(pool[0])  # warm-up, not timed or counted
    start = time.perf_counter()
    i = 0
    while True:
        run.op(i % len(pool))
        i += 1
        busy = time.perf_counter() - start - run.paused_s
        if busy >= seconds:
            break
        if len(setup_times) < SETUP_REPS and busy >= seconds * len(setup_times) / SETUP_REPS:
            another_set_up()
    wall = time.perf_counter() - start - run.paused_s
    while len(setup_times) < SETUP_REPS:  # runs too short to spread them
        another_set_up()
    lat = run.latencies
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(lat) / wall,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"wall_s": wall, "paused_s": run.paused_s, "setup_reps_s": setup_times}
    return run, {k: (metrics[k], unit) for k, unit in END_TO_END}, info


def _mean_file_bytes(directory: Path) -> float:
    sizes = [p.stat().st_size for p in directory.glob("*.json")]
    return sum(sizes) / len(sizes) if sizes else 0.0


def _cli_probes() -> tuple[float, float]:
    """Median ms of a bare interpreter's start, and of importing qlll in a fresh one."""
    bare = []
    for _ in range(CLI_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True, timeout=60)
        bare.append((time.perf_counter() - start) * 1e3)
    imported = [import_probe_s() * 1e3 for _ in range(CLI_PROBES)]
    return statistics.median(bare), statistics.median(imported)


def run_traced(workload, seed: int, seconds: float, workdir: Path, span_path: Path):
    tracer = Tracer()
    pool_dir = workdir / "setup-0"
    pool_dir.mkdir(parents=True)
    tracer.install()
    try:
        pool = workload.build_pool(seed, pool_dir)
    finally:
        tracer.uninstall()
    instance_bytes = _mean_file_bytes(pool_dir)
    run = Run(workload, pool)
    workload.run(pool[0])
    cycle = range(min(workload.trace_cycle or len(pool), len(pool)))
    untraced_s, traced_s = [], []
    deadline = time.perf_counter() + seconds
    traced_ops = 0
    # start another pair of passes only if it should end before the deadline
    while not traced_s or time.perf_counter() + untraced_s[-1] + traced_s[-1] < deadline:
        untraced_s.append(sum(run.op(i) for i in cycle))
        tracer.install()
        try:
            elapsed = 0.0
            for i in cycle:
                tracer.op = len(run.records)
                elapsed += run.op(i)
            traced_s.append(elapsed)
        finally:
            tracer.op = -1
            tracer.uninstall()
        traced_ops += len(cycle)
    interpreter_ms = import_ms = 0.0
    if workload.name == "cli":
        interpreter_ms, import_ms = _cli_probes()
    values = {
        "serialize.instance_bytes": instance_bytes,
        "cli.interpreter_ms": interpreter_ms,
        "cli.import_ms": import_ms,
        "trace.overhead_ratio": statistics.mean(traced_s) / statistics.mean(untraced_s),
    }
    metrics = {}
    for name, (fn, unit) in PER_LAYER.items():
        metrics[name] = (values[name] if fn is None else fn(tracer, traced_ops), unit)
    tracer.write_spans(span_path)
    info = {
        "traced_ops": traced_ops,
        "cycles": len(traced_s),
        "spans_seen": tracer.spans_seen,
        "spans_file": str(span_path.relative_to(ROOT)),
        "setup_spans": sum(v[0] for (name, phase), v in tracer.stats.items() if phase == SETUP),
    }
    return run, metrics, info


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def _instance_shapes(pool) -> list[dict]:
    """Distinct (family, n, dim, outcomes) in the pool, with how many items share each."""
    shapes = {}
    for item in pool:
        key = json.dumps(item.meta())
        shapes[key] = shapes.get(key, 0) + 1
    return [{**json.loads(key), "items": count} for key, count in shapes.items()]


def metadata(args, pool, run) -> dict:
    ops_by_item = {}
    for index, _, _ in run.records:
        ops_by_item[pool[index].id] = ops_by_item.get(pool[index].id, 0) + 1
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "dim_cap": qlll.dimension_cap(),
        "clients": 1,
        "instances": _instance_shapes(pool),
        "ops": len(run.records),
        "ops_by_item": ops_by_item,
        **({} if args.trace else {"op_p50_ms_by_family": _p50_by_family(pool, run)}),
    }


def _p50_by_family(pool, run) -> dict:
    by_family = {}
    for (index, _, _), latency in zip(run.records, run.latencies):
        by_family.setdefault(pool[index].family, []).append(latency * 1e3)
    return {family: statistics.median(values) for family, values in by_family.items()}


def main(args) -> int:
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        if args.trace:
            span_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            run, metrics, info = run_traced(workload, args.seed, args.seconds, workdir, span_path)
        else:
            run, metrics, info = run_untraced(workload, args.seed, args.seconds, workdir)
        failed, messages = run.gate(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(run.records)
    for message in messages[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {attempted} ops, {info}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':40s} {failed / attempted:14.6g} ({failed} of {attempted} ops)")
    print("meta " + json.dumps(metadata(args, run.pool, run), separators=(",", ":")))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, separators=(",", ":")))
    return 0
