import math
import random
from itertools import accumulate
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turncover import balance, bench, coverage_path, pipeline
from turncover.balance import (
    LoopCostModel,
    anchor_starts,
    arc_cost,
    balance_partition,
)
from turncover.brick_tiling import min_brick_tiling
from turncover.coverage_path import (CoverageLoop, RobotParams, cells,
                                    circumnavigate, extract_twists, path_time,
                                    run_twists)
from turncover.grid_map import coverage_nodes_of
from turncover.tree_builder import dfs_tree, kruskal_tree, merge_bricks

import oracles
from conftest import make_span, random_connected_span
from oracles import (bottleneck_partition, brute_force_partition,
                     first_cut_makespans, greedy_cuts, quadrant_walk,
                     shortest_gap_first)

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


def random_params(rng):
    return RobotParams(accel=rng.uniform(0.05, 3.0),
                       v_max=rng.uniform(0.05, 3.0),
                       omega=rng.uniform(0.1, 4.0))


def random_anchors(rng, size, k, clustered):
    """k distinct loop indices, spread around the loop or bunched like
    robots leaving one depot."""
    if not clustered:
        return sorted(rng.sample(range(size), k))
    base, width = rng.randrange(size), max(k, size // rng.choice((4, 16)))
    return sorted((base + off) % size for off in rng.sample(range(width), k))


class TestAnchorStarts:
    def test_exact_hit(self):
        loop = square_loop()
        starts = anchor_starts(loop, [loop.nodes[5]])
        assert starts[0] == 5

    def test_collision_resolved_to_adjacent_index(self):
        loop = square_loop()
        cell = loop.nodes[5]
        starts = anchor_starts(loop, [cell, cell])
        assert starts[0] == 5
        assert starts[1] == 4  # next free index clockwise
        assert starts[0] != starts[1]

    def test_tie_breaks_to_lower_index(self):
        loop = square_loop()
        # a far-away cell is equidistant to several nodes; expect the
        # lowest winning index deterministically
        a = anchor_starts(loop, [(100, 100)])
        b = anchor_starts(loop, [(100, 100)])
        assert a[0] == b[0]

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
                # a twin of the loop, whose coordinate view stays unbuilt
                twin = CoverageLoop(loop.runs, loop.rows, loop.resolution_d)
                starts = anchor_starts(twin, requested)
                assert "nodes" not in twin.__dict__
                assert starts == scan(loop, requested)

    def test_too_many_robots(self):
        loop = square_loop()
        with pytest.raises(ValueError, match="exceed loop length"):
            anchor_starts(loop, [(0, 0)] * (len(loop) + 1))

    def test_anchors_are_plain_loop_indices(self):
        # robot i's anchor is the i-th int; a robot whose nearest node is
        # taken steps clockwise past every taken index
        loop = square_loop()
        size = len(loop)
        cell = loop.nodes[1]
        starts = anchor_starts(loop, [cell, loop.nodes[0], cell, cell])
        assert starts == [1, 0, size - 1, size - 2]
        assert all(type(a) is int for a in starts)


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
                a = model.arc_cost(start, 3, start)
                end = (start + 2) % len(loop)
                b = model.arc_cost(end, 3, end)
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

    def test_tables_match_direction_tuples(self):
        # reference: turning flags from per-node direction tuples
        for seed in range(6):
            loop = random_loop(seed, mega=(5, 4), ratio=0.15)
            model = LoopCostModel(loop, PARAMS)
            nodes, size = loop.nodes, len(loop)
            dirs = [(nodes[(i + 1) % size][0] - nodes[i][0],
                     nodes[(i + 1) % size][1] - nodes[i][1])
                    for i in range(size)]
            turning = [dirs[i - 1] != dirs[i] for i in range(size)]
            turn_idx = [i for i in range(size) if turning[i]]
            doubled = turn_idx + [t + size for t in turn_idx]
            assert model._turns2 == doubled
            assert model._rank == list(accumulate(turning * 2))
            prefix = [0]
            for a, b in zip(doubled, doubled[1:]):
                prefix.append(prefix[-1] + model._leg[b - a])
            assert model._leg_prefix == prefix

    def test_evaluator_matches_arc_cost_on_edge_arcs(self):
        rng = random.Random(41)
        for seed in range(6):
            loop = random_loop(seed, mega=(4, 3), ratio=0.1)
            params = random_params(rng)
            model = LoopCostModel(loop, params)
            aim, cost = model.evaluator()
            size = len(loop)

            def direct(start, span, anchor):
                return arc_cost(loop, start % size, span + 1, anchor % size,
                                params)

            # span-0 arcs from every virtual start, wrapped ones included
            for start in range(2 * size):
                aim(start, start)
                assert cost(0) == 0.0
            cases = []
            for _ in range(60):
                start = rng.randrange(2 * size)  # start >= size wraps
                span = rng.randrange(size)
                offset = rng.randint(0, span)
                cases += [(start, span, start),  # anchor at the start
                          (start, span, start + span),  # anchor at the end
                          (start, span, start + offset)]
            cases += [(size - 1, size - 1, size - 1 + o)
                      for o in (0, 1, size // 2, size - 2, size - 1)]
            for start, span, anchor in cases:
                aim(start, anchor)
                assert cost(span) == direct(start, span, anchor), (
                    start, span, anchor)
                if anchor < start + span:
                    seqs = _oracle_sweeps(loop, start % size, span + 1,
                                          anchor % size)
                    orders = cost(span, True)
                    assert orders[0] == path_time(
                        extract_twists(seqs[0]), params, loop.resolution_d)
                    assert orders[1] == path_time(
                        extract_twists(seqs[1]), params, loop.resolution_d)

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
                seqs = _oracle_sweeps(loop, start, length, anchor)
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
        assert robot.time == path_time(extract_twists(seq), PARAMS,
                                       loop.resolution_d)

    def test_two_robots_diametric_symmetry(self):
        loop = square_loop()
        half = len(loop) // 2
        starts = [0, half]
        plan = balance_partition(loop, starts, PARAMS)
        t0, t1 = plan.robots[0].time, plan.robots[1].time
        assert abs(t0 - t1) < 1e-9
        assert plan.robots[0].arc_length == plan.robots[1].arc_length

    def test_robot_i_is_anchored_at_starts_i(self):
        # anchors in shuffled order: the plan lists robot i i-th, at its
        # own anchor, whatever order the anchors lie in along the loop
        rng = random.Random(9)
        loop = random_loop(4, mega=(6, 5), ratio=0.1)
        for k in (1, 2, 5, 9):
            anchors = rng.sample(range(len(loop)), k)
            assert k < 5 or anchors != sorted(anchors)
            plan = balance_partition(loop, anchors, PARAMS)
            assert [r.robot_id for r in plan.robots] == list(range(k))
            assert [r.anchored for r in plan.robots] == anchors

    def test_anchor_outside_loop_rejected(self):
        # one robot and two: the last robot's anchor is off the loop's
        # indices, the pair 3, 3 + size both naming node 3
        loop = square_loop()
        size = len(loop)
        for anchors in ([-1], [size], [size + 1], [0, -1], [0, size],
                        [0, size + 2], [3, 3 + size]):
            starts = list(anchors)
            rid, anchor = len(anchors) - 1, anchors[-1]
            with pytest.raises(ValueError, match=f"robot {rid}: anchor "
                               f"{anchor} is not a loop index"):
                balance_partition(loop, starts, PARAMS)

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
            starts = list(idxs)
            plan = balance_partition(loop, starts, PARAMS)
            optimum = brute_force_partition(loop, starts, PARAMS)
            assert plan.makespan == optimum, (mega, seed, idxs)

    def test_arcs_partition_loop(self):
        rng = random.Random(6)
        for seed in range(10):
            loop = random_loop(seed, mega=(3, 2), ratio=0.1)
            k = rng.randint(1, 4)
            idxs = sorted(rng.sample(range(len(loop)), k))
            starts = list(idxs)
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
            starts = list(idxs)
            plan = balance_partition(loop, starts, PARAMS)
            makespans.append(plan.makespan)
        assert makespans[1] <= makespans[0] + 1e-9
        assert makespans[2] <= makespans[1] + 1e-9

    def test_turn_aware_preference(self):
        # an equal-node split is dominated by the optimizer's makespan
        loop = random_loop(13, mega=(3, 2), ratio=0.15)
        size = len(loop)
        starts = [0, size // 2]
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
            starts = list(idxs)
            for robot in balance_partition(loop, starts, PARAMS).robots:
                assert robot.time == arc_cost(
                    loop, robot.arc_start, robot.arc_length, robot.anchored,
                    PARAMS)
                twists = run_twists(robot.runs)
                assert twists == extract_twists(robot.sequence)
                assert robot.twists == len(twists)
                assert robot.time == path_time(twists, PARAMS,
                                               loop.resolution_d)


def _oracle_sweeps(loop, arc_start, arc_length, anchor):
    """The two sweep sequences sliced from the loop's nodes, near end
    first and far end first."""
    return [oracles.arc_sequence(loop, arc_start, arc_length, anchor,
                                 near_first) for near_first in (True, False)]


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
                sweeps = [cells(balance._arc_sequence(loop, *case, near_first),
                                loop.rows) for near_first in (True, False)]
                assert sweeps == [tuple(s) for s in
                                  _reference_arc_sequences(loop, *case)]
                assert sweeps == [tuple(s) for s in
                                  _oracle_sweeps(loop, *case)]

    def test_anchor_outside_arc_rejected(self):
        loop = square_loop()
        size = len(loop)
        for start, length, anchor in ((0, 4, 4), (size - 2, 3, 2),
                                      (0, size, size), (0, 3, -1)):
            for near_first in (True, False):
                with pytest.raises(ValueError, match="outside arc"):
                    balance._arc_sequence(loop, start, length, anchor,
                                          near_first)

    def test_sweep_twists_equal_extract_twists_on_walks(self):
        # random 4-adjacent walks, the one-node walk among them, each cut
        # three ways into id runs: one-node pieces, cuts between equal
        # steps and back-and-forth reversals
        rng = random.Random(12)
        rows = 5
        steps = ((1, 0), (0, 1), (-1, 0), (0, -1))
        for n in range(1, 60):
            seq = [(rng.randrange(5), rng.randrange(rows))]
            step = rng.choice(steps)
            for _ in range(n - 1):
                x, y = seq[-1]
                back = (-step[0], -step[1])
                step = rng.choice([s for s in (step, step, back, *steps)
                                   if 0 <= y + s[1] < rows])
                seq.append((x + step[0], y + step[1]))
            assert extract_twists(seq) == oracles.extract_twists(seq)
            ids = [x * rows + y for x, y in seq]
            for _ in range(3):
                pieces, first = [], 0
                for i in range(1, n + 1):
                    # the piece of nodes first to i - 1 ends at the walk's
                    # end, where its step changes, or at random
                    if (i == n or rng.random() < 0.3 or i - first > 1 and
                            ids[i] - ids[i - 1] != ids[i - 1] - ids[i - 2]):
                        by = (ids[first + 1] - ids[first] if i - first > 1
                              else rng.choice((1, -1, rows, -rows)))
                        pieces.append(range(ids[first], ids[i - 1] + by, by))
                        first = i
                assert cells(pieces, rows) == tuple(seq)
                assert run_twists(pieces) == oracles.extract_twists(seq)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_plan_twists_equal_extract_twists(self, k):
        rng = random.Random(k)
        for seed in range(4):
            loop = random_loop(seed, mega=(12, 12), ratio=0.1)
            size = len(loop)
            spread = rng.sample(range(size), k)
            base = rng.randrange(size)
            anchor_sets = [
                spread,
                # consecutive anchors: one-node arcs between two others,
                # and anchors at the first and at the last node of their
                # arcs, here and across the loop's wrap
                [(base + i) % size for i in range(k)],
                [(size - 1 + i) % size for i in range(k)],
                # a pair of neighbours among spread anchors
                [base, (base + 1) % size] + [(base + i * size // k) % size
                                             for i in range(2, k)],
            ]
            for idxs in anchor_sets:
                starts = sorted(set(idxs))
                for robot in balance_partition(loop, starts, PARAMS).robots:
                    twists = run_twists(robot.runs)
                    assert twists == extract_twists(robot.sequence)
                    assert robot.twists == len(twists)
                    assert robot.time == path_time(twists, PARAMS,
                                                   loop.resolution_d)


_TREES = (
    lambda s: merge_bricks(min_brick_tiling(s), s),
    lambda s: dfs_tree(s, min(s.nodes)),
    lambda s: kruskal_tree(s, 3),
)


class TestIdRunsAgainstCoordinateOracles:
    """The loop and the sweeps are id runs; their coordinate views equal
    what the coordinate definitions give."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), method=st.sampled_from(range(3)),
           data=st.data())
    def test_views_turns_sweeps_and_twists(self, seed, method, data):
        span = random_connected_span(random.Random(seed), max_dim=7,
                                     max_cells=30)
        tree = _TREES[method](span)
        start = data.draw(st.sampled_from(sorted(coverage_nodes_of(
            span.nodes))))
        loop = circumnavigate(tree, start)
        assert loop.nodes == quadrant_walk(tree, start).nodes
        assert loop.turns == oracles.loop_turns(loop.nodes)
        size = len(loop)
        for _ in range(4):
            arc_start = data.draw(st.integers(0, 2 * size - 1))
            length = data.draw(st.integers(1, size))
            anchor = (arc_start + data.draw(st.integers(0, length - 1))) % size
            for near_first in (True, False):
                runs = balance._arc_sequence(loop, arc_start, length, anchor,
                                             near_first)
                assert cells(runs, loop.rows) == tuple(oracles.arc_sequence(
                    loop, arc_start, length, anchor, near_first))
        k = data.draw(st.integers(1, min(5, size)))
        anchors = sorted(data.draw(st.sets(st.integers(0, size - 1),
                                           min_size=k, max_size=k)))
        starts = list(anchors)
        model = LoopCostModel(loop, PARAMS)
        for robot in balance_partition(loop, starts, PARAMS).robots:
            # one robot sweeps the whole loop one way from its anchor
            near_first = k == 1 or model.sweep_order(
                robot.arc_start, robot.arc_length, robot.anchored)[1]
            assert robot.sequence == tuple(oracles.arc_sequence(
                loop, robot.arc_start, robot.arc_length, robot.anchored,
                near_first))
            twists = run_twists(robot.runs)
            assert twists == extract_twists(robot.sequence)
            assert robot.twists == len(twists)


@pytest.mark.parametrize("k", [1, 4, 16])
@pytest.mark.parametrize("anchors", ["spread", "clustered", "pinned"])
def test_plan_times_equal_coordinate_pricing(k, anchors):
    # path_time prices each leg from its twists' index difference; the
    # coordinate pricing takes math.hypot of the twist points' difference.
    # Legs are straight, so both give the same float, bit for bit
    grid = bench.generate_random_map((40, 40), 0.1, 7)
    starts = None
    if anchors != "spread":
        loop = pipeline.plan(grid, k=1).loop
        rng = random.Random(k)
        starts = [loop.nodes[i] for i in random_anchors(
            rng, len(loop), k, clustered=anchors == "clustered")]
        rng.shuffle(starts)
    result = pipeline.plan(grid, k=k, starts=starts)
    assert len(result.plan.robots) == k
    for robot in result.plan.robots:
        seq = robot.sequence
        twists = run_twists(robot.runs)
        assert robot.twists == len(twists)
        assert tuple(map(sub, twists[1:], twists)) == oracles.twist_legs(seq)
        assert robot.time == oracles.coordinate_path_time(
            seq, PARAMS, result.loop.resolution_d)


@pytest.mark.parametrize("k", [1, 3, 8])
def test_plan_path_makes_no_extract_twists_call(monkeypatch, k):
    # the plan reads each robot's twists off its sweep's id runs
    # (run_twists)
    def refused(sequence):
        raise AssertionError("extract_twists called on the plan path")

    grid = bench.generate_random_map((10, 10), 0.1, k)
    loop = pipeline.plan(grid, k=1).loop
    pinned = [loop.nodes[i] for i in
              sorted(random.Random(k).sample(range(len(loop)), k))]
    monkeypatch.setattr(coverage_path, "extract_twists", refused)
    monkeypatch.setattr(balance, "extract_twists", refused)
    plans = [pipeline.plan(grid, k=k), pipeline.plan(grid, k=k, starts=pinned)]
    monkeypatch.undo()
    for result in plans:
        assert len(result.plan.robots) == k
        for robot in result.plan.robots:
            twists = run_twists(robot.runs)
            assert twists == extract_twists(robot.sequence)
            assert robot.twists == len(twists)


class TestGreedyCuts:
    """The sweep against ``oracles.greedy_cuts``, which prices every arc
    with one ``LoopCostModel.arc_cost`` call or, on short loops, also
    with module-level ``arc_cost`` on the arc's node sequences."""

    def test_matches_arc_cost_sweep_on_random_loops(self):
        rng = random.Random(2024)
        probes = timed = 0
        for seed in range(36):
            top = 5 if seed % 4 == 0 else 14
            loop = random_loop(seed, mega=(rng.randint(4, top),
                                           rng.randint(4, top)),
                               ratio=rng.choice((0.0, 0.1, 0.2)))
            size = len(loop)
            params = random_params(rng)
            model = LoopCostModel(loop, params)
            k = rng.randint(2, min(4 if seed % 4 == 0 else 16, size))
            if seed % 3 == 2:
                # back to back, across the wrap point: every cut right
                # before an anchor leaves a single-node arc
                base = size - rng.randint(1, k)
                idxs = sorted((base + j) % size for j in range(k))
            else:
                idxs = random_anchors(rng, size, k, clustered=seed % 3 == 1)
            starts = list(idxs)
            opt = balance_partition(loop, starts, params).makespan
            orders = [shortest_gap_first(idxs, size)]
            # any rotation is a valid input; late ones start past size
            r = rng.randrange(k)
            orders.append(idxs[r:] + [a + size for a in idxs[:r]])
            budgets = [opt, math.nextafter(opt, 0), rng.uniform(0, 2 * opt),
                       rng.uniform(0.9 * opt, opt)]
            # on short loops also price each arc on its node sequence
            timed_cost = None
            if size <= 160:
                timed += 1

                def timed_cost(start, length, anchor):
                    return arc_cost(loop, start % size, length, anchor % size,
                                    params)
            for anchors in orders:
                firsts = range(anchors[0], anchors[1])
                for budget in budgets:
                    found = balance._greedy_cuts(model, anchors, budget,
                                                 firsts)
                    assert found == greedy_cuts(model, anchors, budget,
                                                firsts), (seed, budget)
                    if timed_cost:
                        assert found == greedy_cuts(model, anchors, budget,
                                                    firsts, timed_cost), (
                            seed, budget)
                    probes += 1
        assert probes == 36 * 2 * 4 and timed >= 9

    @pytest.mark.parametrize("mega, ratio, seed", [((40, 40), 0.15, 3),
                                                   ((80, 80), 0.1, 7)])
    def test_matches_on_every_probe_of_the_artifact_plans(
            self, mega, ratio, seed, monkeypatch):
        # the maps of the plan-large-* and *-scale artifacts
        grid = bench.generate_random_map(mega, ratio, seed)
        probes = []
        sweep = balance._greedy_cuts

        def recorded(model, anchors, budget, firsts):
            out = sweep(model, anchors, budget, firsts)
            probes.append((model, list(anchors), budget, list(firsts), out))
            return out

        monkeypatch.setattr(balance, "_greedy_cuts", recorded)
        for k in (4, 16):
            pipeline.plan(grid, k=k)
        assert any(out[0] is None for *_, out in probes)
        assert any(out[0] is not None for *_, out in probes)
        for model, anchors, budget, firsts, out in probes:
            assert out == greedy_cuts(model, anchors, budget, firsts)


class TestSurvivors:
    """The first cuts a probe keeps, against the least makespan of each
    first cut from ``oracles.first_cut_makespans``."""

    @pytest.mark.parametrize("seed", range(16))
    def test_survivors_are_the_first_cuts_within_budget(self, seed):
        rng = random.Random(seed)
        loop = random_loop(seed, mega=(rng.randint(3, 8), rng.randint(3, 8)),
                           ratio=rng.choice((0.0, 0.1, 0.2)))
        size = len(loop)
        params = random_params(rng)
        model = LoopCostModel(loop, params)
        idxs = random_anchors(rng, size, rng.randint(2, min(6, size)),
                              clustered=seed % 2 == 1)
        best = first_cut_makespans(model, idxs)
        opt = min(best.values())
        anchors = shortest_gap_first(idxs, size)
        every = range(anchors[0], anchors[1])
        budgets = [opt, math.nextafter(opt, 0), rng.uniform(opt, 1.2 * opt),
                   rng.uniform(1.2 * opt, 3 * opt)]
        for budget in budgets:
            found, over, survivors = balance._greedy_cuts(model, anchors,
                                                          budget, every)
            assert survivors == [c for c in every if best[c] <= budget]
            if survivors:
                assert found[0] == survivors[0]
                assert balance._cut_makespan(model, anchors, found) <= budget
            else:
                assert found is None and budget < over <= opt
            # a lower probe over the survivors keeps what a full scan keeps
            for lower in budgets:
                if lower < budget:
                    out = balance._greedy_cuts(model, anchors, lower,
                                               survivors)
                    full = balance._greedy_cuts(model, anchors, lower, every)
                    assert (out[0], out[2]) == (full[0], full[2])
                    if out[0] is None:
                        assert lower < out[1] <= opt


def test_partition_work_stays_bounded(monkeypatch):
    """Evaluator calls of whole partitions on the 80x80 artifact map.

    A probe that rescans the whole first gap instead of the surviving
    first cuts makes about 170,000 calls at k = 4 and 56,000 at k = 16;
    testing only the survivors makes about 39,000 and 25,000.
    """
    calls = 0
    evaluator = LoopCostModel.evaluator

    def counted(model):
        aim, cost = evaluator(model)

        def priced(*args):
            nonlocal calls
            calls += 1
            return cost(*args)
        return aim, priced

    monkeypatch.setattr(LoopCostModel, "evaluator", counted)
    loop = random_loop(7, mega=(80, 80), ratio=0.1)
    size = len(loop)
    for k, bound in ((4, 60_000), (16, 40_000)):
        calls = 0
        starts = [i * size // k for i in range(k)]
        balance_partition(loop, starts, PARAMS)
        assert 0 < calls <= bound, k


CASES = [
    # (mega, map seed, k, clustered): loops of about 100 to 400 nodes
    ((5, 5), 1, 2, False), ((6, 6), 2, 3, False), ((7, 7), 3, 4, False),
    ((10, 10), 4, 2, False), ((8, 8), 5, 5, False), ((9, 9), 6, 6, False),
    ((10, 10), 7, 8, False), ((8, 8), 8, 7, False),
    ((6, 6), 9, 2, True), ((7, 7), 10, 4, True), ((9, 9), 11, 6, True),
    ((10, 10), 12, 8, True), ((10, 10), 13, 3, True),
]


class TestBottleneckOracle:
    @pytest.mark.parametrize("mega, seed, k, clustered", CASES)
    def test_makespan_equals_bottleneck_dp(self, mega, seed, k, clustered):
        rng = random.Random(seed)
        loop = random_loop(seed, mega=mega, ratio=0.1)
        params = random_params(rng)
        idxs = random_anchors(rng, len(loop), k, clustered)
        starts = list(idxs)
        plan = balance_partition(loop, starts, params)
        dp = bottleneck_partition(LoopCostModel(loop, params), idxs)
        assert plan.makespan == dp


@st.composite
def partition_cases(draw):
    """A loop of a small random map, kinematics, and 2 to 5 distinct
    anchors on it."""
    mega = (draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    loop = random_loop(draw(st.integers(0, 999)), mega=mega,
                       ratio=draw(st.sampled_from((0.0, 0.1, 0.2))))
    params = RobotParams(accel=draw(st.floats(0.05, 3.0)),
                         v_max=draw(st.floats(0.05, 3.0)),
                         omega=draw(st.floats(0.1, 4.0)))
    k = draw(st.integers(2, 5))
    idxs = sorted(draw(st.sets(st.integers(0, len(loop) - 1),
                               min_size=k, max_size=k)))
    return loop, params, idxs


def _plan(loop, params, idxs):
    starts = list(idxs)
    return balance_partition(loop, starts, params)


class TestPartitionProperties:
    """The min-max partition against module-level ``arc_cost`` on random
    small loops."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(partition_cases(), st.data())
    def test_no_cut_set_beats_the_plan(self, case, data):
        loop, params, idxs = case
        size, k = len(loop), len(idxs)
        makespan = _plan(loop, params, idxs).makespan
        for _ in range(3):
            # cut i is the last node of the arc holding anchor i
            cuts = [a + data.draw(st.integers(0, (idxs[(i + 1) % k] - a - 1)
                                              % size))
                    for i, a in enumerate(idxs)]
            worst = max(
                arc_cost(loop, (cuts[i - 1] + 1) % size,
                         (cuts[i] - cuts[i - 1] - 1) % size + 1, a, params)
                for i, a in enumerate(idxs))
            assert makespan <= worst

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(partition_cases())
    def test_makespan_is_the_costliest_own_arc(self, case):
        loop, params, idxs = case
        plan = _plan(loop, params, idxs)
        assert plan.makespan == max(
            arc_cost(loop, r.arc_start, r.arc_length, r.anchored, params)
            for r in plan.robots)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(partition_cases(), st.randoms(use_true_random=False))
    def test_relabelling_robots_keeps_the_makespan(self, case, rand):
        loop, params, idxs = case
        shuffled = list(idxs)
        rand.shuffle(shuffled)
        starts = list(shuffled)
        assert balance_partition(loop, starts, params).makespan == _plan(
            loop, params, idxs).makespan
