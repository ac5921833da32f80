"""Quick end-to-end run of the benchmark (about a minute).

    python3 -m pytest benchmarks/e2e

Every workload runs once with ``--seconds 1`` (the smallest run: one
round, one pass, one segment) and must check out correct, with no
failed request and every declared metric present; the service mix,
whose spans cross threads, also runs traced.  A copy of the benchmark
without the program beside it must refuse to run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize(
    "workload,trace",
    [
        ("cold-verify", 0),
        ("numeric-loop", 0),
        ("edit-loop", 0),
        ("service-mix", 0),
        ("service-mix", 1),
    ],
)
def test_workload_checks_out(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "cold-verify", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
