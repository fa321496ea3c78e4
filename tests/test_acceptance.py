"""Acceptance suite: one check per release criterion.

Each test prints a single ``[acceptance] <label>: PASS`` (or FAIL) line
so the release log shows one verdict per criterion.
"""

import math
import random
import time

import pytest

from turncover import bench, brick_tiling, grid_map, pipeline
from turncover.balance import balance_partition
from turncover.brick_tiling import (
    build_segment_graph,
    max_independent_set,
    maximum_matching,
    min_brick_tiling,
    tiling_from_independent_set,
)
from turncover.cli import main
from turncover.coverage_path import (
    RobotParams,
    circumnavigate,
    leg_time,
    turn_term,
)
from turncover.tree_builder import dfs_tree, kruskal_tree, merge_bricks, tree_turns

from conftest import make_span, random_connected_span
from oracles import brute_force_min_tiling, brute_force_partition, loop_turn_count

PARAMS = RobotParams()

# worked-example layout: 4x3 mega cells with four obstacles, leaving
# eight free cells and exactly four vertical border segments
FIG_OBSTACLES = ((1, 0), (1, 1), (2, 0), (3, 0))


def _verdict(label, check):
    try:
        check()
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def test_01_worked_example_tiling():
    def check():
        t0 = time.perf_counter()
        span = make_span(4, 3, FIG_OBSTACLES)
        seg = build_segment_graph(span)
        matching = maximum_matching(seg)
        keep = max_independent_set(seg, matching)
        assert len(keep) == 5
        bricks = tiling_from_independent_set(span, seg, keep)
        assert len(bricks) == 3
        # the suboptimal all-vertical deletable set of size 4 gives 4 bricks
        vertical = frozenset(s for s in seg.segments if seg.vertical[s])
        assert len(vertical) == 4
        assert len(tiling_from_independent_set(span, seg, vertical)) == 4
        # an unobstructed 3x4 block tiles into 3 full-row bricks
        assert len(min_brick_tiling(make_span(4, 3))) == 3
        assert time.perf_counter() - t0 < 1.0

    _verdict("worked example tiling", check)


def test_02_tiling_identity_bricks_equal_cells_minus_deleted():
    def check():
        rng = random.Random(20)
        for seed in range(200):
            w = rng.randint(2, 30)
            h = rng.randint(2, 30)
            ratio = rng.uniform(0.0, 0.2)
            grid = bench.generate_random_map((w, h), ratio, seed)
            span = pipeline.build_component(grid, None)
            seg = build_segment_graph(span)
            matching = maximum_matching(seg)
            keep = max_independent_set(seg, matching)
            bricks = tiling_from_independent_set(span, seg, keep)
            assert len(bricks) == len(span.nodes) - len(keep)

    _verdict("tiling identity R = S - T", check)


def test_03_tiling_optimality_oracle():
    def check():
        t0 = time.perf_counter()
        rng = random.Random(3)
        for _ in range(100):
            span = random_connected_span(rng)
            assert len(min_brick_tiling(span)) == brute_force_min_tiling(span)
        assert time.perf_counter() - t0 < 60.0

    _verdict("tiling optimality oracle", check)


def test_04_matching_complement_is_independent():
    def check():
        rng = random.Random(4)
        for _ in range(100):
            span = random_connected_span(rng, max_dim=7, max_cells=30)
            seg = build_segment_graph(span)
            matching = maximum_matching(seg)
            keep = max_independent_set(seg, matching)
            assert len(matching) + len(keep) == len(seg.segments)
            for h, v in seg.edges:
                assert not (h in keep and v in keep)

    _verdict("independent set construction", check)


def test_05_turn_count_equivalence():
    def check():
        rng = random.Random(5)
        for i in range(50):
            span = random_connected_span(rng)
            builders = (
                merge_bricks(min_brick_tiling(span), span),
                dfs_tree(span, min(span.nodes)),
                kruskal_tree(span, i),
            )
            mx, my = min(span.nodes)
            for tree in builders:
                loop = circumnavigate(tree, (2 * mx, 2 * my))
                assert loop_turn_count(loop) == tree_turns(tree)

    _verdict("turn count equivalence", check)


def test_06_turn_reduction_versus_kruskal():
    def check():
        t0 = time.perf_counter()
        wins = 0
        reductions = []
        n = 20
        for seed in range(n):
            grid = bench.generate_random_map((20, 20), 0.1, seed)
            turns = pipeline.turns_by_method(grid, kruskal_seed=seed)
            if turns["tmstc"] <= turns["kruskal"]:
                wins += 1
            reductions.append(
                (turns["kruskal"] - turns["tmstc"]) / turns["kruskal"]
            )
        assert wins >= math.ceil(0.95 * n)
        assert sum(reductions) / n >= 0.10
        assert time.perf_counter() - t0 < 120.0

    _verdict("turn reduction vs kruskal", check)


def test_07_time_model_fixtures():
    def check():
        assert leg_time(1.0, PARAMS) == pytest.approx(2.41667, abs=1e-4)
        threshold = PARAMS.v_max ** 2 / (2 * PARAMS.accel)
        assert threshold == pytest.approx(0.208333, abs=1e-6)
        ramp = math.sqrt(2 * threshold / PARAMS.accel)
        cruise = threshold / PARAMS.v_max + PARAMS.v_max / (2 * PARAMS.accel)
        # both formulas agree at the branch point to 1e-6 and round to
        # the five-decimal reference value
        assert ramp == pytest.approx(cruise, abs=1e-6)
        assert ramp == pytest.approx(0.83333, abs=5e-6)
        assert cruise == pytest.approx(0.83333, abs=5e-6)
        assert leg_time(threshold, PARAMS) == pytest.approx(ramp, abs=1e-6)
        assert turn_term(6, PARAMS) == pytest.approx(3.92699, abs=1e-4)

    _verdict("time model fixtures", check)


def test_08_partition_optimality():
    def check():
        rng = random.Random(8)
        checked = 0
        seed = 0
        while checked < 100:
            seed += 1
            grid = bench.generate_random_map(
                (3, 2), rng.choice([0.0, 0.2, 0.4]), seed
            )
            loop = pipeline.plan(grid, k=1).loop
            if len(loop) > 24:
                continue
            k = rng.randint(1, min(3, len(loop)))
            idxs = sorted(rng.sample(range(len(loop)), k))
            starts = list(idxs)
            plan = balance_partition(loop, starts, PARAMS)
            assert plan.makespan == brute_force_partition(loop, starts, PARAMS)
            checked += 1

    _verdict("partition optimality", check)


def test_09_deterministic_plan_artifacts(tmp_path):
    def check():
        path = tmp_path / "arena.grid"
        path.write_text(
            "00000000\n"
            "00110000\n"
            "00000000\n"
            "00000011\n"
            "00000011\n"
            "00000000\n"
        )
        args = ["plan", "--map", str(path), "--robots", "3", "--seed", "7"]
        out1 = tmp_path / "plan1.txt"
        out2 = tmp_path / "plan2.txt"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    _verdict("deterministic plan artifacts", check)


def test_10_coverage_completeness():
    def check():
        for seed, k in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 2)):
            grid = bench.generate_random_map((6, 5), 0.15, seed)
            result = pipeline.plan(grid, k=k, seed=seed)
            loop = result.loop
            cover = grid_map.coverage_nodes_of(result.span.nodes)
            assert set(loop.nodes) == cover
            visited = set()
            indices = []
            for robot in result.plan.robots:
                visited.update(robot.sequence)
                indices.extend(
                    (robot.arc_start + t) % len(loop)
                    for t in range(robot.arc_length)
                )
            assert visited == cover
            assert sorted(indices) == list(range(len(loop)))

    _verdict("coverage completeness", check)
