"""Smoke test of the benchmark at a tiny scale (1x training split, 1 s runs).

    python3 -m pytest -q bench/test_bench.py

Every workload must pass its output checks and emit every metric named in
BENCHMARK.json with its unit; a tree without ``src/`` must be refused.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def _run(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "7", "--seconds", "1", "--scale", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def runs():
    return {}


def _result(runs, trace: int) -> subprocess.CompletedProcess:
    if trace not in runs:
        runs[trace] = _run(trace)
    return runs[trace]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_for_every_workload(runs, trace, kind):
    proc = _result(runs, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if kind == "end_to_end":
        zero = [k for k, v in result["metrics"].items() if v["value"] == 0]
        assert not zero, f"end-to-end metrics read 0: {zero}"


def test_traced_run_reproduces_the_layer_split(runs):
    assert _result(runs, 1).returncode == 0
    record = {w: json.loads((ROOT / ".bench_work" / "runs" / f"{w}-seed7-trace1"
                             / "result.json").read_text(encoding="utf-8"))["metrics"]
              for w in WORKLOADS}
    value = {w: {k: m["value"] for k, m in ms.items()} for w, ms in record.items()}
    assert value["train-long"]["bn.class_cpt_query.calls"] == 0
    assert value["train-long"]["featurize.observations"] > 0
    assert value["score-ref"]["bn.class_cpt_query.calls"] > 0
    assert value["explain-loop"]["bn.eliminate.calls"] > 0
    assert value["explain-loop"]["explain.explain_cell.calls"] > 0


def test_refuses_a_tree_without_the_program():
    stripped = ROOT / ".bench_work" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(BENCH, stripped / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    proc = _run(0, cwd=stripped)
    shutil.rmtree(stripped)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail_percentile(99) == 100.0
    assert run.tail_percentile(100) == run.tail_percentile(5000) == 90.0
    assert run.percentile(list(range(1, 1001)), 99.0) == 990
    assert run.percentile([3.0, 1.0, 2.0], 100.0) == 3.0
