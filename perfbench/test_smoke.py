"""Smoke test of the benchmark: each workload at tiny size, untraced and traced.

Checks that every metric BENCHMARK.json names is emitted with its unit,
that no operation fails on tiny inputs, that traced counts repeat between
two runs of one seed, and that a directory without the program is refused.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=root)


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    out = _result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1  # fail_ratio 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(out["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_counts_repeat_for_a_seed():
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first, second = (_result("cold", 1)["metrics"] for _ in range(2))
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["zeros.hardy_z_calls"]["value"] > 0
    record = json.loads((ROOT / ".perfbench_out" / "cold-seed3-trace1.json").read_text())
    assert record["counts_repeat"] is True


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("cold", 0, root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
