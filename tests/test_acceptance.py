"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ACCEPTANCE line with its verdict before
asserting, so the pass/fail status of every criterion is visible in the
plain pytest output.
"""

import json
import math
import time

import jsonschema
import numpy as np
import pytest

from helpers import POOL_SIZE, rand_subset, rarefy_events, suite_rng
from test_propositions import MIN_HITS, SUITE_NAMES
from qlll import cli
from qlll.events import Event, complete_event
from qlll.generate import (
    GeneratorKind,
    GeneratorSpec,
    computational_measurement,
    generate,
    generate_assumption_satisfying,
    plus_state,
    worked_examples,
    zx_measurement_pair,
)
from qlll.independence import compute_profile
from qlll.lll import check_general, check_symmetric, symmetric_chain_holds
from qlll.oracle import enumerate_probability, sample_trajectories
from qlll.probability import TestEventAssignment, pr_state_cond, pr_test_marginal
from qlll.schemas import (
    COMMAND_SCHEMAS,
    ERROR_SCHEMA,
    SYMMETRIC_CHECK_SCHEMA,
)
from qlll.serialize import dumps, loads

EXPECTED_EXAMPLE_VALUES = {
    "reordering": (0.25, 0.0),
    "marginal-vs-state": (1.0, 0.5, 0.0, 0.5, 0.5),
    "conditional-reversal": (0.25, 0.0),
    "total-probability-failure": (0.0, 0.25),
    "independence-reading": (0.5, 0.5),
}


def _verdict(capsys, number: int, name: str, failures: list):
    ok = not failures
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, failures[:10]


def test_criterion_1_worked_examples(capsys):
    failures = []
    start = time.time()
    examples = worked_examples()
    elapsed = time.time() - start
    if [ex.name for ex in examples] != list(EXPECTED_EXAMPLE_VALUES):
        failures.append(("names", [ex.name for ex in examples]))
    for ex in examples:
        expected = EXPECTED_EXAMPLE_VALUES[ex.name]
        if len(ex.checks) != len(expected):
            failures.append((ex.name, "check count", len(ex.checks)))
            continue
        for check, value in zip(ex.checks, expected):
            if check.expected != value:
                failures.append((ex.name, check.label, "expected drifted", check.expected))
            if abs(check.actual - value) > 1e-9:
                failures.append((ex.name, check.label, check.actual, value))
    if sum(len(ex.checks) for ex in examples) != 13:
        failures.append(("total checks", sum(len(ex.checks) for ex in examples)))
    if elapsed >= 1.0:
        failures.append(("elapsed", elapsed))
    _verdict(capsys, 1, "worked-examples", failures)


def test_criterion_2_proposition_suites(capsys, prop_results):
    failures = []
    results = prop_results["results"]
    if set(results) != set(SUITE_NAMES):
        failures.append(("suite set", sorted(results)))
    for name, result in results.items():
        if result.instances != POOL_SIZE:
            failures.append((name, "instances", result.instances))
        if result.checks < POOL_SIZE:
            failures.append((name, "checks", result.checks))
        if result.violations:
            failures.append((name, "violations", result.violations[:3]))
        if result.hits < MIN_HITS.get(name, 0):
            failures.append((name, "hits", result.hits))
    if prop_results["elapsed"] >= 60.0:
        failures.append(("elapsed", prop_results["elapsed"]))

    # fixed negative control: conditional probability is not monotone under
    # inserting an event at the head of the target sequence
    m1, m2 = zx_measurement_pair()
    m3 = computational_measurement(2, "M3")
    plus = plus_state()
    e1, e2, e3 = (Event(m, {o}) for m, o in ((m1, "0"), (m2, "0"), (m3, "1")))
    with_head = pr_state_cond(plus, [e1], [e2, e3])
    without = pr_state_cond(plus, [e1], [e3])
    if abs(with_head - 0.25) > 1e-9 or abs(without - 0.0) > 1e-9:
        failures.append(("negative control", with_head, without))
    _verdict(capsys, 2, "proposition-suites", failures)


def test_criterion_3_oracle_equivalence(capsys, instance_pool):
    failures = []
    rng = suite_rng(300, 0)
    queries = 0
    for a in instance_pool:
        slots = tuple(range(1, a.n + 1))
        for _ in range(3):
            K = rand_subset(rng, slots, min_size=1)
            direct = pr_test_marginal(a, K)
            summed = enumerate_probability(a, K)
            queries += 1
            if abs(direct - summed) > 1e-10:
                failures.append((a.test.rho.dim, K, direct, summed))
        # the whole horizon: complete events at every slot
        events = {i: complete_event(m) for i, m in enumerate(a.test.measurements, 1)}
        total = enumerate_probability(TestEventAssignment(a.test, events), slots)
        if abs(total - 1.0) > 1e-9:
            failures.append(("horizon sum", total))
    if queries < 500:
        failures.append(("query count", queries))
    _verdict(capsys, 3, "oracle-equivalence", failures)


def test_criterion_4_general_bound_sweep(capsys):
    failures = []
    jobs = [(GeneratorKind.PAPER_EXAMPLES, 2, 2, 0.6, seed) for seed in (0, 1)]
    single = [(2, 2), (3, 3), (4, 2), (3, 4)]
    product = [(2, 2), (3, 2), (2, 3), (3, 2)]
    for kind in (
        GeneratorKind.TENSOR_PRODUCT,
        GeneratorKind.SLIDING_WINDOW,
        GeneratorKind.RANDOM_PROJECTIVE,
        GeneratorKind.RANDOM_POVM,
        GeneratorKind.DEPENDENT_CHAIN,
    ):
        table = product if kind in (GeneratorKind.TENSOR_PRODUCT, GeneratorKind.SLIDING_WINDOW) else single
        for t in range(20):
            n, local = table[t % 4]
            jobs.append((kind, n, local, (0.3, 0.5, 0.8)[t % 3], 100 + t))
    assert len(jobs) >= 100

    for kind, n, local, x_val, seed in jobs:
        spec = GeneratorSpec(kind=kind, n=n, local_dim=local, window=2, seed=seed)
        x = (x_val,) * n
        inst, _ = generate_assumption_satisfying(spec, x)
        report = check_general(inst)
        tag = (kind.value, n, local, x_val, seed)
        if not all(report.assumption_ok):
            failures.append((tag, "assumption", report.assumption_ok))
        target = 1.0
        for v in x:
            target *= 1.0 - v
        if report.lhs < target - 1e-9:
            failures.append((tag, "product bound", report.lhs, target))
        for value, weight in report.lemma_bounds:
            if value is None:
                failures.append((tag, "undefined conditional"))
            elif value > weight + 1e-9:
                failures.append((tag, "conditional", value, weight))
    _verdict(capsys, 4, "general-bound-sweep", failures)


def test_criterion_5_symmetric_bound_sweep(capsys):
    failures = []
    kept = 0
    families = (
        {"local_dim": 3, "n": 2, "window": 2, "d_target": 1, "seeds": range(80)},
        {"local_dim": 2, "n": 3, "window": 3, "d_target": 2, "seeds": range(60)},
    )
    for fam in families:
        cap = 1.0 / ((fam["d_target"] + 1) * math.e) - 1e-6
        for seed in fam["seeds"]:
            spec = GeneratorSpec(
                kind=GeneratorKind.SLIDING_WINDOW,
                n=fam["n"],
                local_dim=fam["local_dim"],
                window=fam["window"],
                seed=seed,
            )
            a = generate(spec)
            if compute_profile(a).d_min < 1:
                continue
            rare = rarefy_events(a, cap, np.random.default_rng(10_000 + seed))
            if any(not rare.event(i).outcomes for i in rare.assigned()):
                continue
            profile = compute_profile(rare)
            if profile.d_min < 1:
                continue
            kept += 1
            report = check_symmetric(rare, profile=profile)
            tag = (fam["local_dim"], fam["n"], seed, profile.d_min)
            if report.condition_value > 1.0:
                failures.append((tag, "condition value", report.condition_value))
            if report.condition != "satisfied":
                failures.append((tag, "condition", report.condition))
            if report.explicit_bound - 1e-9 <= 0.0:
                failures.append((tag, "bound not positive", report.explicit_bound))
            if report.lhs < report.explicit_bound - 1e-9:
                failures.append((tag, "positivity bound", report.lhs, report.explicit_bound))
            if report.verdict != "pass":
                failures.append((tag, "verdict", report.verdict))
    if kept < 50:
        failures.append(("kept", kept))

    for d in range(65):
        if not symmetric_chain_holds(d):
            failures.append(("chain helper", d))
        share = 1.0 / (d + 1)
        if 1.0 / ((d + 1) * math.e) > share * (1.0 - share) ** d + 1e-12:
            failures.append(("chain inequality", d))
    _verdict(capsys, 5, "symmetric-bound-sweep", failures)


def test_criterion_6_monte_carlo(capsys, instance_pool):
    failures = []
    cases = []
    for a in instance_pool:
        K = a.assigned()
        exact = enumerate_probability(a, K)
        if 1e-3 <= exact <= 1.0 - 1e-3:
            cases.append((a, K, exact))
        if len(cases) == 50:
            break
    if len(cases) < 50:
        failures.append(("usable instances", len(cases)))

    # at most one fresh-seed retry per instance, enforced structurally
    for idx, (a, K, exact) in enumerate(cases):
        est = sample_trajectories(a, K, n_samples=100_000, seed=7000 + idx)
        ok = est.std_error > 0 and abs(est.estimate - exact) <= 4.0 * est.std_error
        if not ok:
            est = sample_trajectories(a, K, n_samples=100_000, seed=9_000_000 + idx)
            ok = est.std_error > 0 and abs(est.estimate - exact) <= 4.0 * est.std_error
        if not ok:
            failures.append((idx, exact, est.estimate, est.std_error))

    for idx in (0, 17, 33):
        a, K, _ = cases[idx]
        first = sample_trajectories(a, K, n_samples=100_000, seed=7000 + idx)
        second = sample_trajectories(a, K, n_samples=100_000, seed=7000 + idx)
        if first != second:
            failures.append(("reproducibility", idx))
    _verdict(capsys, 6, "monte-carlo", failures)


def test_criterion_7_serialization_and_cli(capsys, tmp_path):
    failures = []
    kinds = (
        GeneratorKind.TENSOR_PRODUCT,
        GeneratorKind.SLIDING_WINDOW,
        GeneratorKind.RANDOM_PROJECTIVE,
        GeneratorKind.RANDOM_POVM,
        GeneratorKind.DEPENDENT_CHAIN,
    )
    for t in range(1000):
        kind = kinds[t % 5]
        local = 2 if kind in (GeneratorKind.TENSOR_PRODUCT, GeneratorKind.SLIDING_WINDOW) else 2 + t % 3
        a = generate(GeneratorSpec(kind=kind, n=2, local_dim=local, window=2, seed=20_000 + t))
        x = (0.25,) * a.n if t % 3 == 0 else None
        payload = a.test if t % 7 == 0 else a
        text = dumps(payload, x=x)
        test, assignment, x_back = loads(text)
        again = dumps(test if assignment is None else assignment, x=x_back)
        if again != text:
            failures.append(("round trip", t, kind.value))
            break

    ref = tmp_path / "ref.json"
    ref.write_text(dumps(generate(GeneratorSpec(kind=GeneratorKind.PAPER_EXAMPLES))))
    zero_doc = json.loads(ref.read_text())
    zero_doc["events"][0]["in"] = []
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(zero_doc))
    bare_doc = json.loads(ref.read_text())
    del bare_doc["events"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(bare_doc))
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")

    cli_cases = [
        (["prob", "--instance", str(ref), "--K", "1,2"], 0),
        (["check", "--instance", str(ref), "--x", "0.6,0.6"], 0),
        (["cond", "--instance", str(zero), "--K", "1", "--L", "2"], 1),
        (["check", "--instance", str(ref), "--x", "0.001,0.001"], 1),
        (["check", "--instance", str(ref), "--variant", "symmetric"], 1),
        (["prob", "--instance", str(broken), "--K", "1"], 2),
        (["prob", "--instance", str(bare), "--K", "1"], 2),
    ]
    for argv, expected in cli_cases:
        code = cli.main(argv)
        out = capsys.readouterr().out
        if code != expected:
            failures.append(("exit code", argv, code, expected))
            continue
        doc = json.loads(out)
        try:
            if "error" in doc:
                jsonschema.validate(doc, ERROR_SCHEMA)
            elif doc.get("variant") == "symmetric":
                jsonschema.validate(doc, SYMMETRIC_CHECK_SCHEMA)
            else:
                jsonschema.validate(doc, COMMAND_SCHEMAS[doc["command"]])
        except jsonschema.ValidationError as exc:
            failures.append(("schema", argv, exc.message))
    _verdict(capsys, 7, "serialization-cli", failures)
