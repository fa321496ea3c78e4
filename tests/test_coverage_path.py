import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turncover import bench, pipeline
from turncover.brick_tiling import min_brick_tiling
from turncover.coverage_path import (
    RobotParams,
    circumnavigate,
    extract_twists,
    leg_time,
    path_time,
    turn_term,
)
from turncover.tree_builder import (
    SpanningTree,
    dfs_tree,
    kruskal_tree,
    merge_bricks,
    tree_turns,
)

from conftest import (make_span, make_tree, normalize_edge,
                      random_connected_span, span_of)
from oracles import (coverage_nodes_of, loop_turn_count, loop_turns,
                     quadrant_walk)

PARAMS = RobotParams()


def _signed_area(loop: list) -> int:
    """Twice the shoelace area; positive for a counterclockwise loop."""
    total = 0
    for i, (x1, y1) in enumerate(loop):
        x2, y2 = loop[(i + 1) % len(loop)]
        total += x1 * y2 - x2 * y1
    return total


def _reference_loop(tree, start):
    """The loop as the allowed-moves walk builds it: unit-cell moves
    inside a mega cell unless they cross the tree drawn through the
    mega-cell centers, between mega cells only alongside a tree edge;
    walk the resulting 2-regular graph from ``start`` and reverse the
    walk if its signed area is negative."""
    skeleton = set()
    for (ax, ay), (bx, by) in tree.edges:
        cx, cy = 2 * ax + 1, 2 * ay + 1
        if ay == by:
            skeleton |= {((cx, cy), "h"), ((cx + 1, cy), "h")}
        else:
            skeleton |= {((cx, cy), "v"), ((cx, cy + 1), "v")}
    cover = coverage_nodes_of(tree.span.nodes)
    adj = {c: [] for c in cover}
    for u in cover:
        for v in ((u[0] + 1, u[1]), (u[0], u[1] + 1)):
            if v not in cover:
                continue
            mu, mv = (u[0] // 2, u[1] // 2), (v[0] // 2, v[1] // 2)
            if mu != mv and normalize_edge(mu, mv) not in tree.edges:
                continue
            if v[0] == u[0] + 1:
                crossed = ((u[0] + 1, u[1]), "v")
            else:
                crossed = ((u[0], u[1] + 1), "h")
            if crossed not in skeleton:
                adj[u].append(v)
                adj[v].append(u)
    assert all(len(nbs) == 2 for nbs in adj.values())
    loop, prev, cur = [start], None, start
    while True:
        a, b = adj[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        loop.append(nxt)
        prev, cur = cur, nxt
    assert len(loop) == len(adj)
    if _signed_area(loop) < 0:
        loop = [loop[0]] + loop[:0:-1]
    return tuple(loop)


class TestCircumnavigate:
    def test_single_mega_cell_square_loop(self):
        tree = make_tree([(0, 0)], [])
        loop = circumnavigate(tree, (0, 0))
        assert len(loop) == 4
        assert set(loop.nodes) == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert loop.nodes[0] == (0, 0)
        assert loop_turn_count(loop) == 4

    def test_two_cell_brick_rectangle(self):
        tree = make_tree([(0, 0), (1, 0)], [((0, 0), (1, 0))])
        loop = circumnavigate(tree, (0, 0))
        assert len(loop) == 8
        assert loop_turn_count(loop) == 4

    def test_visits_every_coverage_node_once(self, rng):
        for _ in range(15):
            span = random_connected_span(rng)
            tree = merge_bricks(min_brick_tiling(span), span)
            start = (2 * min(span.nodes)[0], 2 * min(span.nodes)[1])
            loop = circumnavigate(tree, start)
            assert len(loop) == 4 * len(span.nodes)
            assert len(set(loop.nodes)) == len(loop)

    def test_counterclockwise_positive_area(self, rng):
        for _ in range(15):
            span = random_connected_span(rng)
            tree = merge_bricks(min_brick_tiling(span), span)
            start = (2 * min(span.nodes)[0], 2 * min(span.nodes)[1])
            loop = circumnavigate(tree, start)
            assert _signed_area(list(loop.nodes)) > 0

    def test_rotation_to_start(self):
        span = make_span(3, 2)
        tree = merge_bricks(min_brick_tiling(span), span)
        loop = circumnavigate(tree, (3, 1))
        assert loop.nodes[0] == (3, 1)

    def test_start_outside_component(self):
        tree = make_tree([(0, 0)], [])
        with pytest.raises(ValueError, match="outside"):
            circumnavigate(tree, (5, 5))

    def test_turn_equivalence_all_methods(self, rng):
        methods = [
            lambda s: merge_bricks(min_brick_tiling(s), s),
            lambda s: dfs_tree(s, min(s.nodes)),
            lambda s: kruskal_tree(s, 7),
        ]
        for _ in range(20):
            span = random_connected_span(rng)
            for build in methods:
                tree = build(span)
                start = (2 * min(span.nodes)[0], 2 * min(span.nodes)[1])
                loop = circumnavigate(tree, start)
                assert loop_turn_count(loop) == tree_turns(tree)
                # the turns of the runs are the ones the nodes show
                assert loop.turns == loop_turns(loop.nodes)
                assert len(loop.turns) == tree_turns(tree)

    def test_matches_allowed_moves_walk(self):
        # every tree method, several start cells, every quadrant of each
        rng = random.Random(5)
        methods = {
            "tmstc": lambda s: merge_bricks(min_brick_tiling(s), s),
            "dfs": lambda s: dfs_tree(s, min(s.nodes)),
            "kruskal": lambda s: kruskal_tree(s, 3),
        }
        spans = [random_connected_span(rng, max_dim=8, max_cells=40)
                 for _ in range(25)]
        spans += [pipeline.build_component(
            bench.generate_random_map((16, 16), 0.1, seed), None)
            for seed in range(2)]
        for span in spans:
            cells = sorted(span.nodes)
            for name, build in methods.items():
                tree = build(span)
                for mx, my in rng.sample(cells, min(3, len(cells))):
                    for dx in (0, 1):
                        for dy in (0, 1):
                            start = (2 * mx + dx, 2 * my + dy)
                            expected = _reference_loop(tree, start)
                            loop = circumnavigate(tree, start)
                            assert loop.nodes == expected, (name, start)

    def test_unclosed_walk_rejected(self):
        # four edges on five nodes pass the edge count, but the square
        # is a cycle and (3, 3) hangs loose: the walk closes after 12
        # of 20 steps
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        tree = make_tree(square + [(3, 3)],
                         list(zip(square, square[1:] + square[:1])))
        with pytest.raises(AssertionError, match="did not close"):
            circumnavigate(tree, (0, 0))


def _walk_outcome(walk, tree, start):
    """The loop and its turns, or the type of the walk's rejection."""
    try:
        loop = walk(tree, start)
    except (AssertionError, ValueError) as error:
        return type(error)
    return loop, loop.turns


_BUILDERS = (
    lambda s: merge_bricks(min_brick_tiling(s), s),
    lambda s: dfs_tree(s, min(s.nodes)),
    lambda s: kruskal_tree(s, 3),
)


class TestWalkOracle:
    """The run walk against the quadrant rule taken one cell at a time."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), method=st.sampled_from(range(3)))
    def test_same_loop_from_every_start(self, seed, method):
        span = random_connected_span(random.Random(seed), max_dim=7,
                                     max_cells=30)
        tree = _BUILDERS[method](span)
        for start in sorted(coverage_nodes_of(span.nodes)):
            loop, turns = _walk_outcome(circumnavigate, tree, start)
            assert loop == quadrant_walk(tree, start)
            assert turns == loop_turns(loop.nodes)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data(), width=st.integers(1, 4), height=st.integers(1, 4))
    def test_same_outcome_on_arbitrary_masks(self, data, width, height):
        # masks with any bits, edges off the grid and off the node set
        # among them: both walks give the same loop or both reject it
        cells = [(x, y) for x in range(width) for y in range(height)]
        nodes = data.draw(st.sets(st.sampled_from(cells), min_size=1))
        masks = bytearray(data.draw(st.lists(
            st.integers(0, 15), min_size=width * height,
            max_size=width * height)))
        tree = SpanningTree(span_of(width, height, nodes), masks)
        for mx, my in sorted(nodes):
            for start in ((2 * mx, 2 * my), (2 * mx + 1, 2 * my),
                          (2 * mx, 2 * my + 1), (2 * mx + 1, 2 * my + 1)):
                expected = _walk_outcome(quadrant_walk, tree, start)
                if isinstance(expected, tuple):
                    loop, turns = expected
                    expected = loop, loop_turns(loop.nodes)
                assert _walk_outcome(circumnavigate, tree, start) == expected

    def test_start_off_the_grid_rejected_by_both(self):
        tree = make_tree([(0, 0)], [])
        for start in ((-1, 0), (0, -2), (2, 0)):
            for walk in (circumnavigate, quadrant_walk):
                with pytest.raises(ValueError, match="outside"):
                    walk(tree, start)


class TestExtractTwists:
    def test_straight_run_endpoints_only(self):
        seq = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
        twists = extract_twists(seq)
        assert twists == (0, 4)

    def test_l_shape_three_twists(self):
        twists = extract_twists([(0, 0), (1, 0), (1, 1)])
        assert twists == (0, 1, 2)

    def test_staircase_six_twists_four_turns(self):
        # four interior heading changes plus the two endpoints
        seq = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]
        twists = extract_twists(seq)
        assert len(twists) == 6 + 1  # 5 interior turns here; build a 4-turn path
        seq = [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (4, 2), (5, 2)]
        twists = extract_twists(seq)
        assert len(twists) == 6
        assert twists[0] == 0 and twists[-1] == len(seq) - 1

    def test_reversal_counts_twice(self):
        twists = extract_twists([(0, 0), (1, 0), (0, 0), (0, 1)])
        assert twists == (0, 1, 1, 2, 3)

    def test_single_node(self):
        twists = extract_twists([(3, 3)])
        assert len(twists) == 1

    def test_non_adjacent_rejected(self):
        with pytest.raises(ValueError, match="not 4-adjacent"):
            extract_twists([(0, 0), (2, 0)])
        # jumps whose 4x + y step reads like a unit step, and a standstill
        for seq in ([(5, 5), (5, 6), (5, 10), (6, 10)],
                    [(0, 1), (1, 1), (1, 0), (0, 4)],
                    [(0, 0), (1, 0), (1, 0)]):
            a, b = next((a, b) for a, b in zip(seq, seq[1:])
                        if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1)
            with pytest.raises(ValueError) as info:
                extract_twists(seq)
            assert str(info.value) == f"nodes {a} and {b} are not 4-adjacent"


class TestLegTime:
    def test_long_leg(self):
        assert leg_time(1.0, PARAMS) == pytest.approx(2.41667, abs=1e-4)

    def test_branch_continuity(self):
        threshold = PARAMS.v_max ** 2 / (2 * PARAMS.accel)
        short = math.sqrt(2 * threshold / PARAMS.accel)
        longer = threshold / PARAMS.v_max + PARAMS.v_max / (2 * PARAMS.accel)
        assert short == pytest.approx(0.83333, abs=1e-5)
        assert longer == pytest.approx(short, abs=1e-9)
        assert leg_time(threshold, PARAMS) == pytest.approx(short, abs=1e-9)

    def test_zero_distance(self):
        assert leg_time(0.0, PARAMS) == 0.0

    def test_monotone_nondecreasing(self, rng):
        samples = sorted(rng.uniform(0, 3) for _ in range(200))
        times = [leg_time(s, PARAMS) for s in samples]
        assert all(a <= b + 1e-12 for a, b in zip(times, times[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            leg_time(-0.1, PARAMS)


class TestPathTime:
    def test_turn_term_n6(self):
        assert turn_term(6, PARAMS) == pytest.approx(3.92699, abs=1e-4)

    def test_single_node_no_turn_term(self):
        twists = extract_twists([(0, 0)])
        assert path_time(twists, PARAMS, 0.5) == 0.0

    def test_straight_run_of_four_cells(self):
        seq = [(0, 0), (1, 0), (2, 0), (3, 0)]
        twists = extract_twists(seq)
        assert len(twists) == 2
        assert path_time(twists, PARAMS, 0.5) == pytest.approx(
            3.41667, abs=1e-4
        )

    def test_additive_over_straight_junction(self):
        a = [(0, 0), (1, 0), (2, 0)]
        b = [(2, 0), (3, 0), (4, 0)]
        joined = a + b[1:]
        # same heading at the junction, but the robot stops there in the
        # two-piece plan: expect the sum of stop-to-stop legs
        t_sum = (
            path_time(extract_twists(a), PARAMS, 0.5)
            + path_time(extract_twists(b), PARAMS, 0.5)
        )
        t_joined = path_time(extract_twists(joined), PARAMS, 0.5)
        assert t_joined <= t_sum + 1e-12

    def test_reversal_adds_rotation(self):
        out_and_back = [(0, 0), (1, 0), (2, 0), (1, 0), (0, 0)]
        twists = extract_twists(out_and_back)
        assert len(twists) == 4  # endpoints + doubled reversal entry
        expected = 2 * leg_time(1.0, PARAMS) + turn_term(4, PARAMS)
        assert path_time(twists, PARAMS, 0.5) == pytest.approx(expected)

