"""The benchmark's workloads.

Each workload builds an instance pool from the run seed (the program only
sees the generated instances), defines the op the harness times, and turns
an op's output into a JSON summary that the correctness gate checks.

- ``check-d3``: a full bound check per op on small single-space instances;
  the profile/probability/events layers do the work and the time goes to
  Python overhead.
- ``search-d64``: assumption-satisfying search at dimension 64, then a full
  check of the instance found; every rejection re-profiles a mutated
  assignment, in the BLAS-bound regime.
- ``sample-d16``: what the ``sample`` verb does, Monte Carlo plus exact
  enumeration; the oracle layer does the work, the profile layers none.
- ``cli``: one ``qlll.cli.main`` call per op, in process, so argparse,
  instance loading and JSON output dominate.  Interpreter start and import
  vary too much between processes on a shared machine to time per op; the
  traced run probes them in subprocesses instead.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import qlll.cli
from qlll import (
    DEFAULT_TOL,
    GeneratorSpec,
    LLLInstance,
    check_general,
    check_symmetric,
    compute_profile,
    dumps,
    enumerate_probability,
    generate,
    generate_assumption_satisfying,
    load_path,
    pr_test_cond,
    pr_test_marginal,
    sample_trajectories,
)
from qlll.errors import EnumerationCapError

from .gate import FLOAT_TOL, differences

ROOT = Path(__file__).resolve().parents[2]

# spec seeds are SEED_STRIDE * run seed + item offset, so runs never share inputs
SEED_STRIDE = 10_000
# largest trajectory grid the gate enumerates to cross-check a marginal
ENUM_CHECK_CAP = 256
# A sampler estimate fails when its count is as unlikely as a 5-sigma normal
# deviation (two-sided).  The exact binomial tail is used because the normal
# approximation breaks down when n * p is small.
FIVE_SIGMA_TAIL = math.erfc(5.0 / math.sqrt(2.0))


@dataclass
class Item:
    """One pool entry: the input of one op, plus what the metadata reports."""

    id: str
    family: str
    n: int
    dim: int
    outcomes: list[int]
    data: Any
    expected: Any = field(default=None, repr=False)

    def meta(self) -> dict:
        return {"family": self.family, "n": self.n, "dim": self.dim, "outcomes": self.outcomes}


def _plain(value):
    """JSON-normalize (tuples become lists) so summaries compare with golden files."""
    return json.loads(json.dumps(value))


def _write_and_load(a, x, path: Path):
    """Round-trip an instance through an instance file, as the CLI reads it."""
    path.write_text(dumps(a, x=x) + "\n", encoding="utf-8")
    _, loaded, x_loaded = load_path(str(path))
    return loaded, x_loaded


def _item(item_id, spec: GeneratorSpec, a, data) -> Item:
    return Item(
        id=item_id,
        family=spec.kind.value,
        n=spec.n,
        dim=a.test.rho.dim,
        outcomes=[len(m.spectrum) for m in a.test.measurements],
        data=data,
    )


def _check_summary(report, sym) -> dict:
    return {
        "s": report.profile.s,
        "d_min": report.profile.d_min,
        "assumption_ok": report.assumption_ok,
        "bound_ok": report.bound_ok,
        "verdict": sym.verdict,
        "condition": sym.condition,
        "marginals": [r["marginal"] for r in report.assumption_rows],
        "lemma": [v for v, _ in report.lemma_bounds],
        "lhs": report.lhs,
        "p_max": sym.p_max,
    }


def _lemma_errors(summary: dict, x) -> list[str]:
    """When the general hypothesis holds, its conclusions must hold too."""
    if not all(summary["assumption_ok"]):
        return []
    errors = []
    if not summary["bound_ok"]:
        errors.append("hypothesis holds but the product bound fails")
    for i, (v, xi) in enumerate(zip(summary["lemma"], x), start=1):
        if v is None or v > xi + DEFAULT_TOL.prob:
            errors.append(f"hypothesis holds but lemma value at slot {i} is {v!r} > x={xi!r}")
    return errors


def _enumeration_errors(a, marginals) -> list[str]:
    """pr_test_marginal must match exhaustive enumeration wherever the grid fits the cap."""
    errors = []
    for i, value in enumerate(marginals, start=1):
        try:
            exact = enumerate_probability(a, (i,), cap=ENUM_CHECK_CAP)
        except EnumerationCapError:
            break  # grids only grow with the slot index
        if abs(exact - value) > FLOAT_TOL:
            errors.append(f"marginal at slot {i}: {value!r} vs enumeration {exact!r}")
    return errors


def _full_check(inst: LLLInstance):
    report = check_general(inst)
    return report, check_symmetric(inst.assignment, profile=report.profile)


class Workload:
    name = ""
    # ops per traced cycle (a prefix of the pool), None for the whole pool
    trace_cycle: int | None = None

    def build_pool(self, seed: int, workdir: Path) -> list[Item]:
        raise NotImplementedError

    def run(self, item: Item):
        raise NotImplementedError

    def summarize(self, item: Item, out) -> dict:
        raise NotImplementedError

    def golden_view(self, summary: dict) -> dict:
        """The part of a summary recorded in, and compared with, the golden file."""
        return summary

    def check_item(self, item: Item, out) -> list[str]:
        """Seed-independent checks on the raw first output of an item."""
        return []

    def check_op(self, item: Item, summary: dict) -> list[str]:
        """Seed-independent checks on every op."""
        return []


class CheckD3(Workload):
    name = "check-d3"
    X = 0.6  # fixed weight: the first rows' hypotheses hold, later ones fail
    FAMILIES = (
        ("random-projective", 3, 12, 3),
        ("random-projective", 3, 16, 3),
        ("random-projective", 3, 24, 3),
        ("random-povm", 3, 16, 3),
        ("dependent-chain", 2, 24, None),
    )
    # Instances per family.  Op latency is a mixture of a few per-instance
    # costs; with several instances per family a percentile falls inside a
    # family's spread instead of on the step between two instances.
    COPIES = 4
    trace_cycle = len(FAMILIES)

    def build_pool(self, seed, workdir):
        pool = []
        for c in range(self.COPIES):
            for j, (kind, d, n, k) in enumerate(self.FAMILIES):
                offset = c * len(self.FAMILIES) + j
                spec = GeneratorSpec(kind=kind, n=n, local_dim=d, seed=SEED_STRIDE * seed + offset, outcomes=k)
                item_id = f"{kind}-d{d}-n{n}-{c}"
                a, x = _write_and_load(generate(spec), (self.X,) * n, workdir / f"{item_id}.json")
                pool.append(_item(item_id, spec, a, LLLInstance(a, x)))
        return pool

    def run(self, item):
        return _full_check(item.data)

    def summarize(self, item, out):
        return _plain(_check_summary(*out))

    def check_item(self, item, out):
        return _enumeration_errors(item.data.assignment, self.summarize(item, out)["marginals"])

    def check_op(self, item, summary):
        errors = _lemma_errors(summary, item.data.x)
        if abs(summary["p_max"] - max(summary["marginals"])) > FLOAT_TOL:
            errors.append("symmetric p_max differs from the largest general-check marginal")
        return errors


class SearchD64(Workload):
    name = "search-d64"
    trace_cycle = 4
    # distinct specs per run, alternating families; more than a run's ops, so
    # per-run figures average that many different searches
    POOL = 96
    X = 0.5
    FAMILIES = (
        ("tensor-product", 6, 2, 1),
        ("sliding-window", 5, 2, 2),
    )

    def build_pool(self, seed, workdir):
        specs = []
        for j in range(self.POOL):
            kind, n, d, window = self.FAMILIES[j % len(self.FAMILIES)]
            # generate_assumption_satisfying tries seeds spec.seed + attempt, attempt < 32
            specs.append(GeneratorSpec(kind=kind, n=n, local_dim=d, window=window, seed=SEED_STRIDE * seed + 100 * j))
        # the ops generate every candidate; set-up generates one per family for the metadata
        shapes = {spec.kind: generate(spec) for spec in specs[: len(self.FAMILIES)]}
        return [_item(f"{spec.kind.value}-n{spec.n}-{j}", spec, shapes[spec.kind], spec) for j, spec in enumerate(specs)]

    def run(self, item):
        inst, rejections = generate_assumption_satisfying(item.data, (self.X,) * item.n)
        return (inst, rejections, *_full_check(inst))

    def summarize(self, item, out):
        inst, rejections, report, sym = out
        a = inst.assignment
        summary = {"rejections": rejections, "events": [a.event(i).sorted_outcomes() for i in range(1, a.n + 1)]}
        summary.update(_check_summary(report, sym))
        return _plain(summary)

    def check_item(self, item, out):
        return _enumeration_errors(out[0].assignment, self.summarize(item, out)["marginals"])

    def check_op(self, item, summary):
        errors = _lemma_errors(summary, (self.X,) * item.n)
        if not all(summary["assumption_ok"]):
            errors.append("search returned an instance whose hypothesis fails")
        return errors


class SampleD16(Workload):
    name = "sample-d16"
    # (kind, n, local dim, window, outcomes, trajectories per op); the
    # trajectory counts give the families ops of similar cost
    FAMILIES = (
        ("random-povm", 4, 3, 1, 3, 21_500),
        ("tensor-product", 3, 2, 1, None, 2_000),
        ("sliding-window", 3, 2, 2, None, 150),
    )
    COPIES = 8
    # Copy c draws SPREAD[0] + SPREAD[1] * c / (COPIES - 1) times the family's
    # trajectories.  Ops of one cost would put the median latency on the step
    # between a shared machine's fast and slow phases; spread costs move it
    # smoothly with the share of time spent in each.
    SPREAD = (0.6, 0.8)
    trace_cycle = len(FAMILIES)

    def build_pool(self, seed, workdir):
        pool = []
        for c in range(self.COPIES):
            scale = self.SPREAD[0] + self.SPREAD[1] * c / (self.COPIES - 1)
            for j, (kind, n, d, window, k, base) in enumerate(self.FAMILIES):
                samples = round(base * scale)
                offset = c * len(self.FAMILIES) + j
                spec = GeneratorSpec(
                    kind=kind, n=n, local_dim=d, window=window, outcomes=k, seed=SEED_STRIDE * seed + offset
                )
                a = generate(spec)
                item_id = f"{kind}-d{a.test.rho.dim}-n{n}-{c}"
                a, _ = _write_and_load(a, None, workdir / f"{item_id}.json")
                pool.append(_item(item_id, spec, a, (a, samples, SEED_STRIDE * seed + offset)))
        return pool

    def run(self, item):
        a, samples, sampler_seed = item.data
        K = a.assigned()
        return sample_trajectories(a, K, samples, sampler_seed), enumerate_probability(a, K)

    def summarize(self, item, out):
        est, exact = out
        return {"estimate": est.estimate, "n_samples": est.n_samples, "exact": exact}

    def golden_view(self, summary):
        # per-seed draws are not part of the contract, only the exact value
        return {"n_samples": summary["n_samples"], "exact": summary["exact"]}

    def check_item(self, item, out):
        a = item.data[0]
        marginal = pr_test_marginal(a, a.assigned())
        if abs(marginal - out[1]) > FLOAT_TOL:
            return [f"pr_test_marginal {marginal!r} vs enumeration {out[1]!r}"]
        return []

    def check_op(self, item, summary):
        p, n = summary["exact"], summary["n_samples"]
        successes = round(summary["estimate"] * n)
        if binomial_two_sided_tail(successes, n, p) < FIVE_SIGMA_TAIL:
            return [f"estimate {summary['estimate']!r} over {n} trajectories is beyond 5 sigma of {p!r}"]
        return []


@functools.lru_cache(maxsize=None)
def binomial_two_sided_tail(k: int, n: int, p: float) -> float:
    """Twice the binomial probability of a count at least as far from n * p as *k* on its side."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == round(n * p) else 0.0
    log_p, log_q = math.log(p), math.log1p(-p)

    def pmf(j):
        return math.exp(
            math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * log_p + (n - j) * log_q
        )

    step = 1 if k >= n * p else -1
    total = 0.0
    j = k
    # terms shrink monotonically away from the mode, so stop once they no longer matter
    while 0 <= j <= n:
        term = pmf(j)
        total += term
        if term < total * 1e-17:
            break
        j += step
    return min(1.0, 2.0 * total)


def _sha256(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode("utf-8")).hexdigest()


_SAMPLER_FIELDS = ("estimate", "std_error", "discrepancy_sigma")


class Cli(Workload):
    name = "cli"
    X = 0.4
    SAMPLES = 500

    def build_pool(self, seed, workdir):
        pool = []
        # fixed outcome counts, so an op's cost does not depend on the seed
        gen_spec = GeneratorSpec(kind="random-projective", n=8, local_dim=3, outcomes=3, seed=SEED_STRIDE * seed)
        x = (self.X,) * gen_spec.n
        gen_argv = [
            "gen", "--kind", gen_spec.kind.value, "--n", str(gen_spec.n), "--local-dim", "3", "--outcomes", "3",
            "--seed", str(gen_spec.seed), "--x", ",".join(map(str, x)), "--out", str(workdir / "gen.json"),
        ]  # fmt: skip
        # two files per family, for the same reason as CheckD3.COPIES
        files = (
            ("rp8", gen_spec),
            ("tp3", GeneratorSpec(kind="tensor-product", n=3, local_dim=2, seed=SEED_STRIDE * seed + 1)),
            ("rp8b", replace(gen_spec, seed=SEED_STRIDE * seed + 2)),
            ("tp3b", GeneratorSpec(kind="tensor-product", n=3, local_dim=2, seed=SEED_STRIDE * seed + 3)),
        )
        for j, (tag, spec) in enumerate(files):
            path = workdir / f"{tag}.json"
            a, _ = _write_and_load(generate(spec), (self.X,) * spec.n, path)
            if j == 0:
                pool.append(_item("gen", spec, a, {"argv": gen_argv, "spec": spec, "x": x}))
            verbs = (
                ("prob", ["prob", "--K", "1,3"]),
                ("cond", ["cond", "--K", "1", "--L", "2,3"]),
                ("profile", ["profile"]),
                ("check", ["check"]),
                ("check-symmetric", ["check", "--variant", "symmetric"]),
                ("sample", ["sample", "--n", str(self.SAMPLES), "--seed", str(seed)]),
            )
            for verb, argv in verbs:
                argv = argv[:1] + ["--instance", str(path)] + argv[1:]
                pool.append(_item(f"{tag}/{verb}", spec, a, {"argv": argv, "verb": verb, "path": str(path)}))
        return pool

    def run(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qlll.cli.main(item.data["argv"])
        return code, buf.getvalue()

    def summarize(self, item, out):
        code, stdout = out
        doc = json.loads(stdout) if stdout.strip() else None
        written = Path(item.data["argv"][-1]).read_text(encoding="utf-8") if item.id == "gen" else None
        return {"returncode": code, "doc": doc, "file_sha256": _sha256(written)}

    def golden_view(self, summary):
        doc = summary["doc"]
        if isinstance(doc, dict) and doc.get("command") == "sample":
            doc = {k: v for k, v in doc.items() if k not in _SAMPLER_FIELDS}
        return {**summary, "doc": doc}

    def _library(self, item) -> dict:
        """What the CLI must print and return, computed in process from the library."""
        d = item.data
        if item.id == "gen":
            text = dumps(generate(d["spec"]), x=d["x"]) + "\n"
            return {"returncode": 0, "doc": None, "file_sha256": _sha256(text)}
        _, a, x = load_path(d["path"])
        verb = d["verb"]
        code = 0
        if verb == "prob":
            doc = {"command": "prob", "mode": "test", "query": {"K": [1, 3]}, "value": pr_test_marginal(a, (1, 3))}
        elif verb == "cond":
            value = pr_test_cond(a, (1,), (2, 3))
            doc = {"command": "cond", "mode": "test", "query": {"K": [1], "L": [2, 3]}, "value": value}
        elif verb == "profile":
            profile = compute_profile(a)
            doc = {"command": "profile", **profile.to_json()}
            entries = list(profile.table.values())
            code = 2 if entries and all(v is None for v in entries) else 0
        elif verb == "check":
            report = check_general(LLLInstance(a, x))
            ok = all(report.assumption_ok) and report.bound_ok
            doc = {"command": "check", "variant": "general", "report": report.to_json(), "ok": ok}
            code = 1 if not all(report.assumption_ok) else (0 if report.bound_ok else 2)
        elif verb == "check-symmetric":
            report = check_symmetric(a)
            ok = report.verdict == "pass"
            doc = {"command": "check", "variant": "symmetric", "report": report.to_json(), "ok": ok}
            code = 0 if ok else 1
        else:
            K = a.assigned()
            seed = int(d["argv"][d["argv"].index("--seed") + 1])
            est = sample_trajectories(a, K, self.SAMPLES, seed)
            exact = enumerate_probability(a, K)
            sigma = None if est.std_error == 0.0 else abs(est.estimate - exact) / est.std_error
            doc = {"command": "sample", **est.to_json(), "exact": exact, "discrepancy_sigma": sigma}
        return _plain({"returncode": code, "doc": doc, "file_sha256": None})

    def check_op(self, item, summary):
        if item.expected is None:
            item.expected = self._library(item)
        return [f"CLI vs library: {d}" for d in differences(summary, item.expected)]


WORKLOADS = {w.name: w for w in (CheckD3(), SearchD64(), SampleD16(), Cli())}
