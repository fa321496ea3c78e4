"""The benchmark's output checks (``perfbench/checks.py``) on every item of
every workload at tiny size.

The checks read the program's results field by field; running them here
shows a field they need going missing at test time instead of as a
failed benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

from turncover import pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = [w["name"] for w in json.loads(
    (PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import checks
        import workloads
        yield workloads, checks
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("maps", "workloads", "checks"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_pass_on_every_item(perfbench, workload, tmp_path, monkeypatch):
    workloads, checks = perfbench
    plans = []
    original = pipeline.plan

    def plan(*args, **kwargs):
        plans.append(original(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(pipeline, "plan", plan)
    items = workloads.build(workload, 3, "tiny", tmp_path)
    outputs = {}
    for item in items:
        plans.clear()
        raw = item.call()
        assert len(plans) == (1 if item.is_plan else 0), item.key
        outputs[item.key] = raw, (plans[0] if plans else None)
    for item in items:
        raw, result = outputs[item.key]
        if item.kind == "trees":
            reports = [outputs[i.key][0] for i in items
                       if i.kind == "scenario" and i.gen is item.gen]
            assert reports, item.key
            assert checks.check_trees(raw, item.gen, reports) == [], item.key
            continue
        record = workloads.record_bytes(item, raw, result)
        assert checks.check_item(item, raw, result, record) == [], item.key
        assert checks.check_bricks(result) == [], item.key
