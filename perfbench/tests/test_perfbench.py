"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from qlllbench import gate, harness  # noqa: E402
from qlllbench.tracing import Tracer  # noqa: E402
from qlllbench.workloads import WORKLOADS, binomial_two_sided_tail, FIVE_SIGMA_TAIL  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench_run(workload: str, trace: int, seconds: float = 1.0, seed: int = 1) -> tuple[dict, str]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_metric_with_its_unit(workload, trace, section):
    result, stdout = bench_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in stdout.splitlines()), name
        assert math.isfinite(result["metrics"][name]["value"])
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "fail_frac" in stdout and "meta " in stdout


@pytest.mark.parametrize("workload", ["check-d3", "search-d64"])
def test_per_layer_counts_repeat_across_seeded_traced_runs(workload):
    first, _ = bench_run(workload, 1)
    second, _ = bench_run(workload, 1)
    count_units = {"calls/op", "count/op", "traj/op", "GFLOP/op"}
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in count_units]
    counts.append("generate.search.accept_ratio")
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["events.channel.calls"]["value"] > 0
    assert first["metrics"]["independence.is_neg_independent.calls"]["value"] > 0


def _one_pass(workload_name, tmp_path):
    workload = WORKLOADS[workload_name]
    pool = workload.build_pool(gate.GOLDEN_SEED, tmp_path)
    run = harness.Run(workload, pool)
    for index in range(len(pool)):
        run.op(index)
    return workload, pool, run


def test_corrupted_results_are_counted_as_failures(tmp_path):
    workload, pool, run = _one_pass("check-d3", tmp_path)
    golden = gate.load_golden("check-d3")
    assert gate.check(workload, pool, run.records, run.item_errors, golden)[0] == 0

    perturbed = copy.deepcopy(golden)
    perturbed[pool[0].id]["marginals"][0] += 1e-6
    failed, messages = gate.check(workload, pool, run.records, run.item_errors, perturbed)
    assert failed == 1 and "marginals[0]" in messages[0]

    records = list(run.records)
    index, summary, _ = records[1]
    summary = copy.deepcopy(summary)
    summary["verdict"] = "pass" if summary["verdict"] != "pass" else "not-applicable"
    records[1] = (index, summary, None)
    failed, messages = gate.check(workload, pool, records, run.item_errors, golden)
    assert failed == 1 and "verdict" in messages[0]

    # a flipped verdict is caught without a golden file too, by the repeat check
    failed, _ = gate.check(workload, pool, run.records + [records[1]], run.item_errors, None)
    assert failed == 1


def test_golden_outputs_of_another_seed_are_refused(tmp_path, monkeypatch):
    (tmp_path / "check-d3.json").write_text(json.dumps({"seed": gate.GOLDEN_SEED + 1, "items": {}}))
    monkeypatch.setattr(gate, "GOLDEN_DIR", tmp_path)
    with pytest.raises(ValueError, match="seed"):
        gate.load_golden("check-d3")


def test_hypothesis_that_holds_must_give_its_conclusions(tmp_path):
    workload, pool, run = _one_pass("search-d64", tmp_path)
    index, summary, _ = run.records[0]
    broken = dict(summary, bound_ok=False)
    assert workload.check_op(pool[index], summary) == []
    assert workload.check_op(pool[index], broken)


def test_sampler_tail_matches_the_normal_five_sigma_rule_at_large_counts():
    n, p = 20_000, 0.3
    sigma = math.sqrt(n * p * (1 - p))
    assert binomial_two_sided_tail(round(n * p + 4.8 * sigma), n, p) > FIVE_SIGMA_TAIL
    assert binomial_two_sided_tail(round(n * p + 5.2 * sigma), n, p) < FIVE_SIGMA_TAIL
    assert binomial_two_sided_tail(round(n * p - 5.2 * sigma), n, p) < FIVE_SIGMA_TAIL
    # one success where 0.1 are expected is unlikely, but nowhere near 5 sigma
    assert binomial_two_sided_tail(1, 150, 0.1 / 150) > FIVE_SIGMA_TAIL


def test_tracer_restores_the_program_and_computes_self_time():
    import qlll
    import qlll.events as events
    import qlll.lll as lll

    originals = (events.SuperOperator.__call__, events.Measurement.__eq__, lll.compute_profile, qlll.check_general)
    tracer = Tracer()
    tracer.install()
    try:
        assert lll.compute_profile is not originals[2]
        tracer.op = 0
        a = qlll.generate(qlll.GeneratorSpec(kind="random-projective", n=5, local_dim=3, seed=3))
        qlll.check_general(qlll.LLLInstance(a, (0.5,) * 5))
    finally:
        tracer.uninstall()
    assert (events.SuperOperator.__call__, events.Measurement.__eq__, lll.compute_profile, qlll.check_general) == originals
    assert events.Measurement.__hash__ is not None
    calls, total, self_ns = tracer.ops_stat("lll.check_general")
    assert calls == 1 and 0 < self_ns < total
    profile_total = tracer.ops_stat("independence.compute_profile")[1]
    assert profile_total < total
    assert tracer.counters["events.channel.flop"] > 0
