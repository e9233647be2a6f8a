"""Smoke test of the benchmark: a few small-pipeline requests, untraced and traced.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seed", "3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _check(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_smoke_untraced_and_traced():
    report, result = _run(0)
    _check(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["environment"]["blas_threads_env"] == "1"
    assert report["failed_frac"] == 0.0

    traced_report, traced = _run(1)
    _check(traced, SPEC["per_layer"])
    assert traced_report["digest_traced"] == traced_report["digest_untraced"]
    assert traced_report["digest"] == report["digest"]
    metrics = {name: m["value"] for name, m in traced["metrics"].items()}
    assert metrics["forward.per_explain"] == 2
    assert metrics["evaluate.forwards_per_curve"] == 65   # 8 x 8 pixels, 100 steps


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
