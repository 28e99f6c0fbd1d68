"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py

A short run of each workload must print every metric BENCHMARK.json names,
with its unit, and a planted wrong output must count as a failed op.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
import worker  # noqa: E402

sys.path.insert(0, str(workloads.SRC))
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=workloads.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_short_run_emits_every_metric_with_its_unit(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert any(line.startswith("fail_ratio 0 ratio") for line in lines)


def test_planted_wrong_fixture_output_is_a_failed_op(tmp_path):
    for path in workloads.FIXTURES.glob("*.json"):
        shutil.copy(path, tmp_path)
    planted = tmp_path / "tori_reduce_translate.json"
    doc = json.loads(planted.read_text())
    doc["expected"]["reduced"] = [0, 2]
    planted.write_text(json.dumps(doc))

    wl = workloads.build("cli-replay", 1, fixtures=tmp_path)
    phase = worker.run_phase(wl, 0.0, max_ops=len(wl.pool))
    assert phase.failed == 1
    assert phase.failed / len(phase.cpu_ns) > 0
    assert "stdout" in phase.first_failure


@pytest.mark.parametrize("workload, step", [("kernels", 1), ("atlas-check", 2)])
def test_planted_wrong_kernel_output_is_a_failed_op(workload, step):
    wl = workloads.build(workload, 1)
    op = wl.pool[0]
    steps = list(op.steps)
    steps[step] = (steps[step][0], lambda: None)
    wl.pool[0] = workloads.Op(tuple(steps), op.check)
    phase = worker.run_phase(wl, 0.0, max_ops=len(wl.pool))
    assert phase.failed == 1
