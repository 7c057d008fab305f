"""Smoke test for the benchmark, at a tiny size.

    python3 -m pytest -q bench/smoke.py

It is not named test_*.py, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "1", "--seconds", "0", "--limit", "1"]


def _load_bench():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench(["--workload", workload, "--trace", str(trace), *TINY])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines[:-1])
        assert isinstance(result["metrics"][name]["value"], (int, float))
    assert any(line.split()[:1] == ["failed_frac"] for line in lines)
    assert lines[0].startswith("environment ")


def test_traced_counts_repeat_and_wrappers_are_removed():
    bench = _load_bench()
    import tracing

    import elicit.cli
    import elicit.optimize
    import elicit.sweep

    ops = bench.unit("sweep-variance", 3, 0)[:1]
    bench.prepare(ops)
    _, first, _ = bench.traced_pass(ops)
    _, second, _ = bench.traced_pass(ops)
    counts = [k for k, u in bench.PER_LAYER_UNITS.items() if u not in ("ms", "ratio")]
    assert first["optimize.minimize_calls"] > 0 and first["sweep.solves_per_point"] > 1
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}

    assert tracing.leaked_wrappers() == []
    assert elicit.sweep.minimize is elicit.optimize.minimize
    assert elicit.cli.minimize is elicit.optimize.minimize
    assert not hasattr(elicit.cli.main, tracing.MARKER)


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench(["--workload", "sweep-variance", "--seed", "0", "--seconds", "1",
                   "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
