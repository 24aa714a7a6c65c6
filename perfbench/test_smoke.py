"""Smoke test of the benchmark: every workload at a tiny size, in both modes.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workload

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run(cwd: Path, name: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(SEED),
         "--seconds", "0.1", "--trace", str(trace), "--scale", "0.02"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_without_failures(name, trace):
    out = run(ROOT, name, trace)
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in line["metrics"].items()
    }
    record = json.loads(
        (ROOT / ".perfbench_out" / f"{name}-seed{SEED}-trace{trace}.json").read_text()
    )
    assert record["error_rate"] == 0
    assert record["result"] == line


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    first, again, other = (workload.generate("collapse-2k", s, 0.05) for s in (1, 1, 2))
    assert first.circuit == again.circuit
    assert first.circuit != other.circuit
    assert first.hw.document() == again.hw.document()


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(tmp_path, "collapse-2k", 0)
    assert out.returncode != 0
    assert out.stdout == ""
