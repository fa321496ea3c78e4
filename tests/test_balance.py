import math
import random

import pytest

from turncover import balance, bench, pipeline
from turncover.balance import (
    LoopCostModel,
    RobotStart,
    anchor_starts,
    arc_cost,
    balance_partition,
)
from turncover.brick_tiling import min_brick_tiling
from turncover.coverage_path import RobotParams, circumnavigate, extract_twists, path_time
from turncover.tree_builder import merge_bricks

import oracles
from conftest import make_span, random_connected_span
from oracles import brute_force_partition

PARAMS = RobotParams()


def square_loop():
    """2x2 mega block: a 16-node perimeter-style loop."""
    span = make_span(2, 2)
    tree = merge_bricks(min_brick_tiling(span), span)
    return circumnavigate(tree, (0, 0))


def random_loop(seed, mega=(3, 2), ratio=0.0):
    grid = bench.generate_random_map(mega, ratio, seed)
    result = pipeline.plan(grid, k=1)
    return result.loop


class TestAnchorStarts:
    def test_exact_hit(self):
        loop = square_loop()
        starts = anchor_starts(loop, [loop.nodes[5]])
        assert starts[0].anchored == 5

    def test_collision_resolved_to_adjacent_index(self):
        loop = square_loop()
        cell = loop.nodes[5]
        starts = anchor_starts(loop, [cell, cell])
        assert starts[0].anchored == 5
        assert starts[1].anchored == 4  # next free index clockwise
        assert starts[0].anchored != starts[1].anchored

    def test_tie_breaks_to_lower_index(self):
        loop = square_loop()
        # a far-away cell is equidistant to several nodes; expect the
        # lowest winning index deterministically
        a = anchor_starts(loop, [(100, 100)])
        b = anchor_starts(loop, [(100, 100)])
        assert a[0].anchored == b[0].anchored

    def test_matches_nearest_node_scan(self):
        def scan(loop, requested):
            size = len(loop)
            taken, out = set(), []
            for rx, ry in requested:
                best = min(range(size), key=lambda i: (
                    (loop.nodes[i][0] - rx) ** 2
                    + (loop.nodes[i][1] - ry) ** 2, i))
                while best in taken:
                    best = (best - 1) % size
                taken.add(best)
                out.append(best)
            return out

        rng = random.Random(12)
        for seed in range(6):
            loop = random_loop(seed, mega=(4, 3), ratio=0.2)
            for _ in range(10):
                requested = [
                    rng.choice(loop.nodes) if rng.random() < 0.6
                    else (rng.randint(-3, 12), rng.randint(-3, 9))
                    for _ in range(rng.randint(1, 8))
                ]
                starts = anchor_starts(loop, requested)
                assert [s.anchored for s in starts] == scan(loop, requested)
                assert [s.requested for s in starts] == requested

    def test_too_many_robots(self):
        loop = square_loop()
        with pytest.raises(ValueError, match="exceed loop length"):
            anchor_starts(loop, [(0, 0)] * (len(loop) + 1))


class TestArcCost:
    def test_boundary_anchor_is_one_way_sweep(self):
        loop = square_loop()
        cost = arc_cost(loop, 0, 6, 0, PARAMS)
        seq = [loop.nodes[i] for i in range(6)]
        assert cost == pytest.approx(
            path_time(extract_twists(seq), PARAMS, loop.resolution_d)
        )

    def test_symmetric_anchor_strategies_equal(self):
        # straight 5-node arc with the anchor dead center
        loop = random_loop(3)
        model = LoopCostModel(loop, PARAMS)
        # find a straight stretch of 5 nodes
        for start in range(len(loop)):
            idx = [(start + t) % len(loop) for t in range(5)]
            xs = {loop.nodes[i][0] for i in idx}
            ys = {loop.nodes[i][1] for i in idx}
            if len(xs) == 1 or len(ys) == 1:
                a = model.sweep(start, 2)
                b = model.sweep((start + 2) % len(loop), 2)
                assert a == pytest.approx(b)
                break
        else:
            pytest.skip("no straight stretch found")

    def test_interior_anchor_minimum_of_both_orders(self):
        loop = square_loop()
        seqs_cost = arc_cost(loop, 0, 10, 2, PARAMS)
        idx = [i % len(loop) for i in range(10)]
        nodes = [loop.nodes[i] for i in idx]
        near = nodes[2::-1] + nodes[1:]
        far = nodes[2:] + nodes[-2::-1]
        expected = min(
            path_time(extract_twists(s), PARAMS, loop.resolution_d)
            for s in (near, far)
        )
        assert seqs_cost == pytest.approx(expected)

    def test_empty_arc_rejected(self):
        with pytest.raises(ValueError):
            arc_cost(square_loop(), 0, 0, 0, PARAMS)

    def test_single_node_arc_is_free(self):
        assert arc_cost(square_loop(), 4, 1, 4, PARAMS) == 0.0


class TestLoopCostModel:
    def test_matches_direct_arc_cost(self):
        rng = random.Random(99)
        for seed in range(8):
            loop = random_loop(seed, mega=(3, 3), ratio=0.15)
            model = LoopCostModel(loop, PARAMS)
            size = len(loop)
            for _ in range(50):
                start = rng.randrange(size)
                length = rng.randint(1, size)
                anchor = (start + rng.randrange(length)) % size
                direct = arc_cost(loop, start, length, anchor, PARAMS)
                fast = model.arc_cost(start, length, anchor)
                assert fast == direct

    def test_sweep_order_picks_what_min_over_timed_sequences_picks(self):
        rng = random.Random(7)
        ties = 0
        for seed in range(8):
            loop = random_loop(seed, mega=(3, 3), ratio=0.15)
            model = LoopCostModel(loop, PARAMS)
            size = len(loop)
            cases = [(0, 1, 0), (0, size, 0), (0, size, size - 1),
                     (3, 8, 3), (3, 8, 10), (3, 9, 7)]
            for _ in range(50):
                start = rng.randrange(size)
                length = rng.randint(1, size)
                cases.append((start, length,
                              (start + rng.randrange(length)) % size))
            for start, length, anchor in cases:
                seqs = balance._arc_sequences(loop, start, length, anchor)
                timed = [(path_time(extract_twists(s), PARAMS,
                                    loop.resolution_d), j)
                         for j, s in enumerate(seqs)]
                ties += timed[0][0] == timed[1][0]
                t, j = min(timed)
                assert model.sweep_order(start, length, anchor) == (t, j == 0)
        assert ties > 0  # single-node arcs and symmetric ones tie


class TestBalancePartition:
    def test_single_robot_gets_whole_loop(self):
        loop = square_loop()
        starts = anchor_starts(loop, [loop.nodes[0]])
        plan = balance_partition(loop, starts, PARAMS)
        assert len(plan.robots) == 1
        robot = plan.robots[0]
        assert robot.arc_length == len(loop)
        seq = list(loop.nodes)
        assert robot.time == pytest.approx(
            path_time(extract_twists(seq), PARAMS, loop.resolution_d)
        )

    def test_two_robots_diametric_symmetry(self):
        loop = square_loop()
        half = len(loop) // 2
        starts = [
            RobotStart(0, loop.nodes[0], 0),
            RobotStart(1, loop.nodes[half], half),
        ]
        plan = balance_partition(loop, starts, PARAMS)
        t0, t1 = plan.robots[0].time, plan.robots[1].time
        assert abs(t0 - t1) < 1e-9
        assert plan.robots[0].arc_length == plan.robots[1].arc_length

    def test_matches_brute_force_on_small_loops(self):
        rng = random.Random(5)
        # (mega, map seed, anchors): a float cost model missed these by ulps
        cases = [
            ((2, 3), 67, [5, 10]),
            ((2, 3), 115, [1, 3, 15]),
            ((2, 3), 167, [0, 1, 8, 14]),
            ((2, 3), 251, [7, 13, 15]),
        ]
        seed = 0
        while len(cases) < 34:
            seed += 1
            loop = random_loop(seed, mega=(2, 2), ratio=0.25)
            if len(loop) > 24:
                continue
            k = rng.randint(1, min(4, len(loop)))
            cases.append(((2, 2), seed,
                          sorted(rng.sample(range(len(loop)), k))))
        for mega, seed, idxs in cases:
            loop = random_loop(seed, mega=mega, ratio=0.25)
            starts = [
                RobotStart(i, loop.nodes[idx], idx)
                for i, idx in enumerate(idxs)
            ]
            plan = balance_partition(loop, starts, PARAMS)
            optimum = brute_force_partition(loop, starts, PARAMS)
            assert plan.makespan == optimum, (mega, seed, idxs)

    def test_arcs_partition_loop(self):
        rng = random.Random(6)
        for seed in range(10):
            loop = random_loop(seed, mega=(3, 2), ratio=0.1)
            k = rng.randint(1, 4)
            idxs = sorted(rng.sample(range(len(loop)), k))
            starts = [
                RobotStart(i, loop.nodes[idx], idx)
                for i, idx in enumerate(idxs)
            ]
            plan = balance_partition(loop, starts, PARAMS)
            covered = []
            for robot in plan.robots:
                covered.extend(
                    (robot.arc_start + t) % len(loop)
                    for t in range(robot.arc_length)
                )
            assert sorted(covered) == list(range(len(loop)))
            for robot in plan.robots:
                offset = (robot.anchored - robot.arc_start) % len(loop)
                assert offset < robot.arc_length

    def test_more_robots_never_hurt(self):
        loop = random_loop(11, mega=(3, 2), ratio=0.1)
        size = len(loop)
        anchor_sets = [[0], [0, size // 2], [0, size // 3, size // 2]]
        makespans = []
        for idxs in anchor_sets:
            starts = [
                RobotStart(i, loop.nodes[idx], idx)
                for i, idx in enumerate(idxs)
            ]
            plan = balance_partition(loop, starts, PARAMS)
            makespans.append(plan.makespan)
        assert makespans[1] <= makespans[0] + 1e-9
        assert makespans[2] <= makespans[1] + 1e-9

    def test_turn_aware_preference(self):
        # an equal-node split is dominated by the optimizer's makespan
        loop = random_loop(13, mega=(3, 2), ratio=0.15)
        size = len(loop)
        starts = [
            RobotStart(0, loop.nodes[0], 0),
            RobotStart(1, loop.nodes[size // 2], size // 2),
        ]
        plan = balance_partition(loop, starts, PARAMS)
        model = LoopCostModel(loop, PARAMS)
        half = size // 2
        naive = max(
            model.arc_cost(0, half, 0),
            model.arc_cost(half, size - half, half),
        )
        assert plan.makespan <= naive + 1e-9

    def test_coverage_sequences_cover_arc(self):
        loop = random_loop(17, mega=(2, 2), ratio=0.0)
        starts = anchor_starts(loop, [loop.nodes[1], loop.nodes[9]])
        plan = balance_partition(loop, starts, PARAMS)
        for robot in plan.robots:
            arc_nodes = {
                loop.nodes[(robot.arc_start + t) % len(loop)]
                for t in range(robot.arc_length)
            }
            assert set(robot.sequence) == arc_nodes

    def test_robot_times_equal_arc_cost(self):
        rng = random.Random(8)
        for seed in range(10):
            loop = random_loop(seed, mega=(3, 3), ratio=0.15)
            k = rng.randint(1, 4)
            idxs = sorted(rng.sample(range(len(loop)), k))
            starts = [RobotStart(i, loop.nodes[idx], idx)
                      for i, idx in enumerate(idxs)]
            for robot in balance_partition(loop, starts, PARAMS).robots:
                assert robot.time == arc_cost(
                    loop, robot.arc_start, robot.arc_length, robot.anchored,
                    PARAMS)
                assert robot.twists == extract_twists(robot.sequence)
                assert robot.time == path_time(robot.twists, PARAMS,
                                               loop.resolution_d)


def _reference_arc_sequences(loop, arc_start, arc_length, anchor):
    """The two sweep sequences built from the arc's index list."""
    size = len(loop)
    idx = [(arc_start + t) % size for t in range(arc_length)]
    p = idx.index(anchor)
    nodes = [loop.nodes[i] for i in idx]
    return [nodes[p::-1] + nodes[1:], nodes[p:] + nodes[-2::-1]]


class TestSweepSequences:
    def test_arc_sequences_match_index_lists(self):
        rng = random.Random(3)
        for seed in range(6):
            loop = random_loop(seed, mega=(4, 3), ratio=0.15)
            size = len(loop)
            cases = [(0, size, 0), (0, size, size - 1), (size - 1, 2, 0),
                     (size - 1, size, size - 2), (5, 1, 5)]
            for _ in range(40):
                start = rng.randrange(2 * size)
                length = rng.randint(1, size)
                cases.append((start, length,
                              (start + rng.randrange(length)) % size))
            for case in cases:
                assert balance._arc_sequences(loop, *case) == (
                    _reference_arc_sequences(loop, *case))

    def test_anchor_outside_arc_rejected(self):
        loop = square_loop()
        size = len(loop)
        for start, length, anchor in ((0, 4, 4), (size - 2, 3, 2),
                                      (0, size, size), (0, 3, -1)):
            with pytest.raises(ValueError, match="outside arc"):
                balance._arc_sequences(loop, start, length, anchor)

    def test_sweep_twists_equal_extract_twists_on_walks(self):
        rng = random.Random(12)
        steps = ((1, 0), (0, 1), (-1, 0), (0, -1))
        for n in range(1, 60):
            seq = [(rng.randrange(5), rng.randrange(5))]
            for _ in range(n - 1):
                dx, dy = rng.choice(steps)
                seq.append((seq[-1][0] + dx, seq[-1][1] + dy))
            assert extract_twists(seq) == oracles.extract_twists(seq)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_plan_twists_equal_extract_twists(self, k):
        rng = random.Random(k)
        for seed in range(4):
            loop = random_loop(seed, mega=(12, 12), ratio=0.1)
            idxs = sorted(rng.sample(range(len(loop)), k))
            starts = [RobotStart(i, loop.nodes[idx], idx)
                      for i, idx in enumerate(idxs)]
            for robot in balance_partition(loop, starts, PARAMS).robots:
                assert robot.twists == extract_twists(robot.sequence)
                assert robot.time == path_time(robot.twists, PARAMS,
                                               loop.resolution_d)
