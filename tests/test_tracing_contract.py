"""The benchmark's tracer (``perfbench/tracing.py``) wraps module
attributes from outside the program, so it sees a call only while the
program looks the callee up through its module. These tests read the
tracer's ``WRAPPED`` list as it stands and check that every listed
attribute exists and is still reached that way: inlining a call or
binding it to a local name would otherwise hide it from the tracer
without any failure.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from turncover import balance, bench, brick_tiling, cli, pipeline

from oracles import ReferenceSegmentGraph, hopcroft_karp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _map_file(path: Path, grid) -> Path:
    path.write_text("".join(
        "".join("1" if grid.is_occupied(x, y) else "0"
                for x in range(grid.width)) + "\n"
        for y in range(grid.height)))
    return path


def test_every_wrapped_attribute_exists(tracing):
    for mod, attr in tracing.WRAPPED:
        assert callable(getattr(tracing.MODULES[mod], attr, None)), (mod, attr)


def test_every_wrapped_attribute_is_reached(tracing, tmp_path):
    grid = bench.generate_random_map((6, 6), 0.15, 3)
    map_path = _map_file(tmp_path / "map.grid", grid)
    originals = {(m, a): getattr(tracing.MODULES[m], a)
                 for m, a in tracing.WRAPPED}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for robots in ("1", "4"):
            assert cli.main(["plan", "--map", str(map_path), "--robots",
                             robots, "--out", str(tmp_path / "plan.txt")]) == 0
        free = [(x, y) for y in range(grid.height) for x in range(grid.width)
                if grid.is_free(x, y)]
        for starts in (None, (free[0], free[-1])):  # starts take anchor_starts
            bench.run_scenario(bench.Scenario(
                name="s", grid=grid, k=2 if starts else 1, starts=starts))
        bench.compare_trees([("s", grid)])
    finally:
        tracer.uninstall()
    seen = {span.name for span in tracer.spans}
    assert seen == {f"{m}.{a}" for m, a in tracing.WRAPPED}
    assert tracer.counts["balance.cost_evals"] > 0
    for (m, a), original in originals.items():
        assert getattr(tracing.MODULES[m], a) is original


def test_sweep_wrapper_sees_every_probe(tracing, monkeypatch):
    grid = bench.generate_random_map((12, 12), 0.15, 3)
    probes = []
    sweep = balance._greedy_cuts

    def recorded(model, anchors, budget, firsts):
        out = sweep(model, anchors, budget, firsts)
        probes.append((model, list(anchors), budget, out))
        return out

    monkeypatch.setattr(balance, "_greedy_cuts", recorded)
    result = pipeline.plan(grid, k=4)
    # the recorded probes alone must narrow the search to its answer:
    # each one lies inside the bracket the earlier ones left open, and
    # together they close it at the plan's makespan
    lb, ub = 0.0, math.inf
    for model, anchors, budget, (found, over, _) in probes:
        assert lb <= budget < ub
        if found is None:
            assert over > budget
            lb = over
        else:
            ub = balance._cut_makespan(model, anchors, found)
    assert lb >= ub == result.plan.makespan
    assert any(found is None for *_, (found, _, _) in probes)

    # the benchmark's own tracer counts the same probes
    monkeypatch.setattr(balance, "_greedy_cuts", sweep)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pipeline.plan(grid, k=4)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(plans=1, maps=1)
    assert metrics["balance.greedy_calls"] == len(probes)


def test_tiling_counters_match_oracles(tracing):
    # the counters read the graph and the matching the spans return
    grid = bench.generate_random_map((40, 40), 0.15, 3)
    span = pipeline.build_component(grid, None)
    graph = brick_tiling.build_segment_graph(span)
    matching = brick_tiling.maximum_matching(graph)
    ref = ReferenceSegmentGraph(span)
    counters = tracing.COUNTERS
    assert counters["brick_tiling.build_segment_graph"]((span,), graph) == {
        "brick_tiling.segments": len(ref.segments),
        "brick_tiling.conflict_edges": len(ref.edges)}
    assert counters["brick_tiling.maximum_matching"]((graph,), matching) == {
        "brick_tiling.matching_size": len(hopcroft_karp(graph))}
