"""In-memory spans around calls into qlll's public functions.

``Tracer.install`` swaps each traced function or method for a wrapper in
every ``qlll`` and ``qlllbench`` module namespace that binds it (``from .x
import f`` copies the name, so patching one module is not enough);
``uninstall`` puts the originals back, so untraced code runs the unpatched
program.

Every call records one span: name, start, end, parent span and op id.  Self
time is the span's duration minus the time its direct child spans cover.
Calls are single-threaded and nested, so that is computed exactly while the
spans close, and aggregated per (name, phase).  The first ``SPAN_CAP`` raw
spans are kept and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

from qlll.errors import ConditionOnZeroError

SETUP = "setup"
OPS = "ops"
SPAN_COLUMNS = ("id", "name", "start_ns", "end_ns", "parent", "op")
SPAN_CAP = 50_000


def _channel_flop(tracer, args, kwargs, result, exc):
    # computed, not measured: two complex matmuls of 8 d^3 flops per Kraus operator
    so = args[0]
    tracer.count("events.channel.flop", len(so.kraus) * 2 * 8 * so.dim**3)


def _cond_on_zero(tracer, args, kwargs, result, exc):
    if isinstance(exc, ConditionOnZeroError):
        tracer.count("probability.cond_on_zero.count", 1)


def _undefined_pairs(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.count("independence.undefined_pairs", sum(v is None for v in result.table.values()))


def _trajectories(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.count("oracle.trajectories", result.n_samples)


def _enumerated(tracer, args, kwargs, result, exc):
    # enumerate_probability walks the product of allowed labels up to max(K)
    if exc is not None:
        return
    a, K = args[0], sorted(set(args[1] if len(args) > 1 else kwargs["K"]))
    size = 1 if K else 0
    for i in range(1, (K[-1] if K else 0) + 1):
        m = a.test.measurements[i - 1]
        size *= len(a.event(i).outcomes) if i in K else len(m.spectrum)
    tracer.count("oracle.enumerated_trajectories", size)


def _search(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.count("generate.search.candidates", result[1] + 1)
        tracer.count("generate.search.accepted", 1)


# (span name, module, class or None, attribute, hook)
TARGETS = (
    ("events.channel", "qlll.events", "SuperOperator", "__call__", _channel_flop),
    ("events.measurement_eq", "qlll.events", "Measurement", "__eq__", None),
    ("events.super_operator_of", "qlll.events", None, "super_operator_of", None),
    ("probability.assignment_init", "qlll.probability", "TestEventAssignment", "__init__", None),
    ("probability.pr_state", "qlll.probability", None, "pr_state", None),
    ("probability.pr_test_marginal", "qlll.probability", None, "pr_test_marginal", None),
    ("probability.pr_test_cond", "qlll.probability", None, "pr_test_cond", _cond_on_zero),
    ("independence.is_neg_independent", "qlll.independence", None, "is_neg_independent", None),
    ("independence.compute_profile", "qlll.independence", None, "compute_profile", _undefined_pairs),
    ("lll.check_general", "qlll.lll", None, "check_general", None),
    ("lll.check_symmetric", "qlll.lll", None, "check_symmetric", None),
    ("oracle.sample_trajectories", "qlll.oracle", None, "sample_trajectories", _trajectories),
    ("oracle.enumerate_probability", "qlll.oracle", None, "enumerate_probability", _enumerated),
    ("generate.generate", "qlll.generate", None, "generate", None),
    ("generate.search", "qlll.generate", None, "generate_assumption_satisfying", _search),
    ("linalg.validate_density", "qlll.linalg", None, "validate_density", None),
    ("serialize.load_path", "qlll.serialize", None, "load_path", None),
    ("serialize.dumps", "qlll.serialize", None, "dumps", None),
    ("cli.main", "qlll.cli", None, "main", None),
)


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.op = -1  # -1 while setting up, then the op index
        self.names = [t[0] for t in TARGETS]
        # (name, phase) -> [calls, total_ns, self_ns]
        self.stats = defaultdict(lambda: [0, 0, 0])
        self.counters = defaultdict(int)
        self.spans_seen = 0
        self._stack = []
        self._cols = {k: array("q") for k in SPAN_COLUMNS}
        self._patches = []

    def count(self, key: str, value) -> None:
        if self.op >= 0:
            self.counters[key] += value

    def _wrap(self, name_id: int, fn, hook):
        tracer = self
        name = self.names[name_id]
        clock = time.perf_counter_ns
        cols = [self._cols[k] for k in SPAN_COLUMNS]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer.spans_seen
            tracer.spans_seen = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0]  # span id, ns covered by direct children
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat = tracer.stats[(name, OPS if tracer.op >= 0 else SETUP)]
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if span_id < SPAN_CAP:
                    span = (span_id, name_id, start, end, -1 if parent is None else parent[0], tracer.op)
                    for col, value in zip(cols, span):
                        col.append(value)
                if hook is not None:
                    hook(tracer, args, kwargs, result, exc)

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = [importlib.import_module(t[1]) for t in TARGETS]
        # the benchmark's own modules bind qlll names too, and call through them
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] in ("qlll", "qlllbench")]
        for name_id, (_, _, cls, attr, hook) in enumerate(TARGETS):
            owner = owners[name_id]
            if cls is not None:
                klass = getattr(owner, cls)
                original = klass.__dict__[attr]
                self._patch(klass, attr, original, self._wrap(name_id, original, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name_id, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, obj, attr, original, wrapper) -> None:
        setattr(obj, attr, wrapper)
        self._patches.append((obj, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def ops_stat(self, name: str) -> tuple[int, int, int]:
        return tuple(self.stats.get((name, OPS), (0, 0, 0)))

    def per_call_ms(self, name: str) -> float:
        """Mean inclusive ms per call over setup and ops."""
        calls = total = 0
        for phase in (SETUP, OPS):
            stat = self.stats.get((name, phase))
            if stat:
                calls += stat[0]
                total += stat[1]
        return total / calls / 1e6 if calls else 0.0

    def write_spans(self, path) -> None:
        doc = {
            "names": self.names,
            "spans_seen": self.spans_seen,
            "spans_kept": len(self._cols["id"]),
            "columns": {k: v.tolist() for k, v in self._cols.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
