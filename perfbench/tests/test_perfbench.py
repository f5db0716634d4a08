"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest perfbench/tests -q

The short runs take about half a minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Case  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 5
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["pass_share"]["value"] == 1.0
    assert "fail_share=0.0000" in proc.stdout
    for name in expected:
        assert f"\n{name} = " in proc.stdout


def test_traced_run_prints_every_per_layer_metric():
    proc = run_bench("--workload", "cli-queries", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["split.verify_iso.calls"]["value"] == 0
    assert metrics["cli.main.calls"]["value"] == result["attempted"] // 2
    assert metrics["parser.parse.calls"]["value"] > 0 and metrics["cli.out_bytes"]["value"] > 0
    assert 0 < metrics["polys.gcd.trivial_share"]["value"] < 1


def cli_round(seed=5):
    workload = WORKLOADS["cli-queries"]
    ctx, first, _ = bench.setup(workload, ROOT, seed)
    return workload, ctx, first


def test_corrupted_expected_answers_count_as_failures():
    workload, ctx, cases = cli_round()
    by_kind = {}
    for case in cases:
        by_kind.setdefault(case.kind, case)
    k = ctx["fields"][by_kind["power_yes"].m]
    by_kind["power_yes"].expected["f"] = by_kind["power_yes"].expected["f"] * k.coerce(2)
    by_kind["decompose"].expected["theta"] = by_kind["decompose"].expected["algebra"].u()
    by_kind["ode_none"].expected["code"] = 0
    by_kind["validate_perturbed"].expected["failing"] = ["REL9"]
    results = bench.run_cases(workload, ctx, [cases])
    failed = {(r.kind, r.m) for r in results if r.error is not None}
    corrupted = {(c.kind, c.m) for c in by_kind.values() if c.kind in
                 ("power_yes", "decompose", "ode_none", "validate_perturbed")}
    assert failed == corrupted
    metrics, _ = bench.end_to_end(results, 0.1)
    assert metrics["pass_share"][0] == (len(results) - 4) / len(results)


def test_exceptions_and_usage_errors_count_as_failures():
    workload, ctx, cases = cli_round()
    cases[0].inputs["argv"] = cases[0].inputs["argv"] + ["--no-such-flag"]
    results = bench.run_cases(workload, ctx, [cases[:2]])
    assert results[0].error is not None and "exit code 2" in results[0].error
    assert results[1].error is None
    broken = bench.run_case(WORKLOADS["split-standard"], ctx, Case(2, "split_standard", {"algebra": None}))
    assert broken.error is not None and broken.error.startswith("AttributeError")


def snapshot():
    """Every attribute of every diffsym module and traced class, by identity."""
    holders = [mod for key, mod in sys.modules.items() if key == "diffsym" or key.startswith("diffsym.")]
    for _, module, attr, _ in tracing.TARGETS:
        if "." in attr:
            holders.append(getattr(sys.modules[module], attr.split(".")[0]))
    return {(id(h), key): value for h in holders for key, value in list(vars(h).items())}


def test_traced_run_restores_every_wrapped_function():
    workload, ctx, cases = cli_round()
    ds = ctx["ds"]
    before = snapshot()
    original_gauge = ds.matdiff.verify_gauge
    original_gcd = ds.scalars.polys.poly_gcd
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # names re-imported across modules and method aliases are wrapped too
        assert ds.split.verify_gauge is ds.matdiff.verify_gauge is not original_gauge
        assert ds.scalars.ratfunc.poly_gcd is ds.scalars.polys.poly_gcd is not original_gcd
        assert ds.scalars.RatFunc.__radd__ is ds.scalars.RatFunc.__add__
    finally:
        tracer.restore()
    assert len(tracer.patched()) > len(tracing.TARGETS)
    for holder, key, original in tracer.patched():
        assert vars(holder)[key] is original, key

    metrics, results = bench.traced(workload, ctx, [cases[:4]], None)
    assert all(r.error is None for r in results)
    assert metrics["cli.main.calls"][0] == 4
    after = snapshot()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "split-standard", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
