"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest bench -q
"""

import collections
import itertools
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from clustercat import laurent  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


def test_wrong_expected_answer_gives_fail_ratio_one_and_no_time(monkeypatch, capsys):
    def wrong(seed):
        item = workloads._cli_counterexample_item()
        item.expected["lift_self_extension"] = 3
        return lambda sweep: [item]

    monkeypatch.setitem(workloads.WORKLOADS, "module-descent", wrong)
    code = run.main(["--workload", "module-descent", "--seed", "0", "--seconds", "0.01"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] >= 1
    assert detail["fail_ratio"] == 1
    assert "solve_s" not in result["metrics"]
    assert detail["solve_s"]["n"] == 0
    assert "lift_self_extension" in detail["failures"][0]["error"]


def test_one_command_prints_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        proc = _bench("--workload", "module-descent", "--seed", "1", "--seconds", "0.01", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        units = {m["name"]: m["unit"] for m in declared}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        printed = {line.split()[0]: line.split()[-1] for line in lines[:-2]}
        assert printed == units


def test_traced_call_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = _bench("--workload", "affine-walk", "--seed", "7", "--seconds", "0.01", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["laurent.seed_mutate.calls"] > 0


def test_reach_counts_cover_every_walk():
    b = workloads.exchange_matrix(workloads.builtin_quiver("Atilde21"))
    counts = collections.Counter()
    for seq in itertools.product((1, 2, 3), repeat=workloads.WALK_DEPTH):
        if all(x != y for x, y in zip(seq, seq[1:])):
            counts[workloads.walk_reach(b, seq)] += 1
    assert counts == workloads.REACH_COUNTS


def test_walks_are_seeded_and_drawn_to_the_quotas():
    b = workloads.exchange_matrix(workloads.builtin_quiver("Atilde21"))
    quotas = workloads.walk_quotas()
    assert sum(quotas.values()) == workloads.WALKS_PER_SWEEP
    seqs = workloads.walk_sequences(b, random.Random(3))
    assert seqs == workloads.walk_sequences(b, random.Random(3))
    assert seqs != workloads.walk_sequences(b, random.Random(4))
    reaches = [workloads.walk_reach(b, s) for s in seqs]
    strata = collections.Counter(workloads.walk_stratum(r) for r in reaches)
    assert {s: strata[s] for s in quotas} == quotas


def test_walk_check_catches_a_wrong_constant_that_reversal_misses(monkeypatch):
    # Doubling every sum leaves each division exact on one-step walks, and
    # walking back still gives the initial cluster.
    b = workloads.exchange_matrix(workloads.builtin_quiver("Atilde21"))
    items = [workloads._walk_item(b, (k,)) for k in (1, 2, 3)]
    assert all(item.check(item.summarize(item.run())) for item in items)
    add = laurent.LaurentPoly.__add__
    monkeypatch.setattr(laurent.LaurentPoly, "__add__", lambda p, q: add(add(p, q), add(p, q)))
    answers = [item.summarize(item.run()) for item in items]
    assert all(a["returned"] for a in answers)
    assert not any(item.check(a) for item, a in zip(items, answers))


def test_refuses_to_run_without_the_sources():
    with tempfile.TemporaryDirectory(prefix=".bench-test-", dir=ROOT) as tmp:
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        proc = _bench("--workload", "affine-walk", "--seed", "0", "--seconds", "1", cwd=tmp)
    assert proc.returncode == 2
    assert proc.stdout == ""
