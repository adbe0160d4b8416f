"""Self-test of the benchmark at tiny scale.

Runs every workload at minimum size, untraced and traced, and checks
that the result line names exactly the metrics ``BENCHMARK.json``
declares, with their units, and that every output check passed; then
checks that the benchmark refuses to run without the program's sources.
About a minute::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py -q     # the same, under pytest
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _check(workload: str, trace: int) -> None:
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
        assert math.isfinite(value["value"]), name
    for metric in declared:
        # Every metric is printed by name with its unit, too.
        assert f" {metric['name']} " in proc.stdout, metric["name"]


def test_workloads_emit_declared_metrics() -> None:
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            _check(workload, trace)


def test_refuses_to_run_without_sources() -> None:
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        proc = _bench("sweep_mc", 0, cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    test_workloads_emit_declared_metrics()
    test_refuses_to_run_without_sources()
    print("perfbench self-test: ok")
