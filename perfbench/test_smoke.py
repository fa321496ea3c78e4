"""Smoke test of the benchmark at tiny size.

Every metric that BENCHMARK.json names is printed with its unit, no plan
fails, a second run with the same seed gives the same record digest, and
without the program's sources the benchmark fails without a result line.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def tiny(workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return bench("--workload", workload, "--seed", str(seed), "--seconds",
                 "1", "--trace", str(trace), "--scale", "tiny")


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_no_failure(workload, trace, group):
    done = tiny(workload, 3, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], done.stderr
    assert "fail_ratio 0.000000 ratio" in done.stdout
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines[:-1]), name


def test_same_seed_gives_same_digest():
    digests = []
    for _ in range(2):
        done = tiny("depot", 5, 0)
        assert done.returncode == 0, done.stderr
        digests += [line for line in done.stdout.split("\n")
                    if line.startswith("record_digest ")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "fleet", "--seed", "1", "--seconds", "1",
                 "--trace", "0", root=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
