"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload must emit each metric that BENCHMARK.json names, with its
unit, and pass every output check on two seeds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import Tracer

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload: str, seed: int, trace: int, script: Path = HERE / "run.py"):
    return subprocess.run(
        [
            sys.executable, str(script), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "smoke",
        ],
        capture_output=True, text=True, timeout=170,
    )


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_every_declared_metric(workload, trace, kind):
    result = last_json(run_bench(workload, 1, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[kind]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_second_seed_passes_every_check(workload):
    result = last_json(run_bench(workload, 2, 0))
    assert result["correct"] and result["failed"] == 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench(WORKLOAD_NAMES[0], 1, 0, tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_children(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr("spans._clock", lambda: float(next(ticks)))
    tr = Tracer()
    inner = tr.wrap("inner", lambda: None)
    outer = tr.wrap("outer", lambda: [inner(), inner()])
    tr.begin_op(0)
    outer()
    tr.end_op()
    totals = tr.span_totals()
    assert totals["inner"] == {"s": 2.0, "self_s": 2.0, "calls": 2}
    # outer opens at 1, inner spans cover [2, 3] and [4, 5], outer closes at 6
    assert totals["outer"] == {"s": 5.0, "self_s": 3.0, "calls": 1}
    assert totals["bench.op"]["self_s"] == 2.0
