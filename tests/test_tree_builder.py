import heapq
import random

import pytest

from turncover import bench, pipeline
from turncover.brick_tiling import min_brick_tiling
from turncover.grid_map import DisconnectedGraphError
from turncover.tree_builder import (
    DOWN,
    LEFT,
    RIGHT,
    TURNS,
    UP,
    dfs_tree,
    kruskal_tree,
    merge_bricks,
    tree_to_text,
    tree_turns,
    turn_count,
)

import oracles
from conftest import (
    bricks_of,
    make_span,
    make_tree,
    normalize_edge,
    random_connected_span,
    span_edges,
)
from oracles import edge_cost


class TestTurnCount:
    def test_straight_through(self):
        assert turn_count((1, 0), [(0, 0), (2, 0)]) == 0
        assert turn_count((0, 1), [(0, 0), (0, 2)]) == 0

    def test_corner(self):
        assert turn_count((0, 0), [(1, 0), (0, 1)]) == 2

    def test_endpoint_and_tee(self):
        assert turn_count((0, 0), [(1, 0)]) == 2
        assert turn_count((1, 1), [(0, 1), (2, 1), (1, 0)]) == 2

    def test_cross(self):
        assert turn_count((1, 1), [(0, 1), (2, 1), (1, 0), (1, 2)]) == 4

    def test_unconnected_node_counts_as_endpoint(self):
        assert turn_count((0, 0), []) == 2

    def test_mask_table_equals_turn_count(self):
        steps = {RIGHT: (1, 0), DOWN: (0, 1), LEFT: (-1, 0), UP: (0, -1)}
        for mask in range(16):
            node = (5, 7)
            nbs = [(node[0] + dx, node[1] + dy)
                   for bit, (dx, dy) in steps.items() if mask & bit]
            assert TURNS[mask] == turn_count(node, nbs)


class TestEdgeCost:
    def test_collinear_join_saves_four(self):
        adjacency = {(1, 0): {(0, 0)}, (2, 0): {(3, 0)}}
        assert edge_cost(((1, 0), (2, 0)), adjacency) == -4

    def test_perpendicular_join_costs_nothing(self):
        adjacency = {(1, 0): {(0, 0)}, (1, 1): {(2, 1)}}
        assert edge_cost(((1, 0), (1, 1)), adjacency) == 0

    def test_tee_costs_two(self):
        # deg-2 straight-through node gains a branch; deg-1 endpoint
        # becomes a corner
        adjacency = {(1, 0): {(0, 0), (2, 0)}, (1, 1): {(2, 1)}}
        assert edge_cost(((1, 0), (1, 1)), adjacency) == 2

    def test_bounded_range(self, rng):
        for _ in range(20):
            span = random_connected_span(rng)
            bricks = min_brick_tiling(span)
            adjacency = {n: set() for n in span.nodes}
            for brick in bricks.bricks:
                for a, b in zip(brick, brick[1:]):
                    adjacency[a].add(b)
                    adjacency[b].add(a)
            for edge in span_edges(span):
                assert edge_cost(edge, adjacency) in (-4, -2, 0, 2, 4)


def _reference_merge(bricks, span):
    """The greedy merge on neighbour sets: push every non-brick edge with
    its :func:`edge_cost`, then pop, drop, accept or re-push as
    :func:`merge_bricks` documents."""
    parent = {n: n for n in span.nodes}

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    adjacency = {n: set() for n in span.nodes}
    tree_edges = set()
    for brick in bricks.bricks:
        for a, b in zip(brick, brick[1:]):
            parent[find(a)] = find(b)
            adjacency[a].add(b)
            adjacency[b].add(a)
            tree_edges.add(normalize_edge(a, b))
    heap = []
    for edge in span_edges(span):
        if edge not in tree_edges:
            heapq.heappush(heap, (edge_cost(edge, adjacency), edge))
    components = len({find(n) for n in span.nodes})
    while heap and components > 1:
        cached, edge = heapq.heappop(heap)
        a, b = edge
        if find(a) == find(b):
            continue
        cost = edge_cost(edge, adjacency)
        if cost == cached:
            tree_edges.add(edge)
            adjacency[a].add(b)
            adjacency[b].add(a)
            parent[find(a)] = find(b)
            components -= 1
        else:
            heapq.heappush(heap, (cost, edge))
    return frozenset(tree_edges)


class TestMergeBricks:
    def test_matches_neighbour_set_merge(self, rng):
        spans = [random_connected_span(rng, max_dim=8, max_cells=40)
                 for _ in range(30)]
        spans += [pipeline.build_component(
            bench.generate_random_map((20, 20), ratio, seed), None)
            for seed, ratio in ((0, 0.1), (1, 0.2), (2, 0.3))]
        for span in spans:
            bricks = min_brick_tiling(span)
            tree = merge_bricks(bricks, span)
            assert tree.edges == _reference_merge(bricks, span)

    def test_brick_order_and_direction_leave_the_tree(self, rng):
        # the heap keys and the brick edges depend on neither
        spans = [random_connected_span(rng, max_dim=8, max_cells=40)
                 for _ in range(30)]
        spans += [pipeline.build_component(
            bench.generate_random_map((20, 20), ratio, seed), None)
            for seed, ratio in ((0, 0.1), (1, 0.2), (2, 0.3))]
        for span in spans:
            bricks = min_brick_tiling(span)
            height = span.mega_height
            masks = merge_bricks(bricks, span).flat_masks
            # the tiling's id runs and the same bricks built by hand
            hand_built = bricks_of(bricks.bricks, height)
            assert merge_bricks(hand_built, span).flat_masks == masks
            reversed_all = [brick[::-1] for brick in bricks.bricks]
            some = [brick[::rng.choice((1, -1))] for brick in bricks.bricks]
            for shuffled in (reversed_all, some):
                rng.shuffle(shuffled)
                tree = merge_bricks(bricks_of(shuffled, height), span)
                assert tree.flat_masks == masks

    def test_bricks_sharing_a_cell_or_bending(self):
        # bricks that touch cells of earlier ones, or are not straight,
        # merge as the reference does; their edges close no cycle
        span = make_span(3, 3)
        for bricks in (
                (((0, 0), (1, 0)), ((1, 0), (2, 0)), ((0, 1), (1, 1)),
                 ((2, 2), (2, 1), (1, 1))),
                (((0, 0), (0, 1), (1, 1), (1, 0)), ((2, 0), (2, 1), (2, 2)),
                 ((0, 2), (1, 2)), ((1, 2), (1, 1)))):
            tree = merge_bricks(bricks_of(bricks, 3), span)
            assert tree.edges == _reference_merge(bricks_of(bricks, 3), span)
            assert len(tree.edges) == len(span.nodes) - 1

    @pytest.mark.parametrize("mega", [80, 120])
    def test_matches_neighbour_set_merge_at_scale(self, mega):
        span = pipeline.build_component(
            bench.generate_random_map((mega, mega), 0.1, 7), None)
        bricks = min_brick_tiling(span)
        tree = merge_bricks(bricks, span)
        assert tree.edges == _reference_merge(bricks, span)

    def test_builders_derive_the_span_nodes(self, rng):
        spans = [random_connected_span(rng, max_dim=8, max_cells=40)
                 for _ in range(10)]
        for span in spans:
            root = min(span.nodes)
            for tree in (merge_bricks(min_brick_tiling(span), span),
                         dfs_tree(span, root), kruskal_tree(span, 0)):
                # the tree holds the span itself, whose nodes are the
                # one lazy node view
                assert tree.span is span and not hasattr(tree, "nodes")

    def test_flat_tree_equals_public_tree(self, rng):
        spans = [random_connected_span(rng, max_dim=8, max_cells=40)
                 for _ in range(20)]
        spans.append(make_span(1, 1))
        for span in spans:
            tree = merge_bricks(min_brick_tiling(span), span)
            public = make_tree(tree.span.nodes, tree.edges)
            assert tree_turns(tree) == tree_turns(public)
            height, public_height = span.mega_height, public.span.mega_height
            for x, y in tree.span.nodes:
                assert (tree.flat_masks[x * height + y]
                        == public.flat_masks[x * public_height + y])

    def test_bad_bricks_rejected(self):
        span = make_span(3, 2, obstacles=((2, 1),))
        for bricks, match in (
                ((((0, 0), (2, 0)),), "not one unit step"),
                ((((2, 0), (0, 1)),), "not one unit step"),
                ((((1, 0), (1, 1)), ((1, 1), (2, 1))), "leaves the graph"),
                ((((0, 0), (1, 0), (0, 0)),), "close a cycle")):
            with pytest.raises(ValueError, match=match):
                merge_bricks(bricks_of(bricks, 2), span)
        # ids of another layout are not converted
        for height in (1, 3):
            with pytest.raises(ValueError, match=f"height {height} do not"):
                merge_bricks(bricks_of((((0, 0),),), height), span)

    def test_single_brick_is_its_chain(self):
        span = make_span(4, 1)
        bricks = min_brick_tiling(span)
        tree = merge_bricks(bricks, span)
        assert tree.edges == {
            ((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (3, 0))
        }

    def test_two_parallel_bricks_one_connector(self):
        span = make_span(2, 2)
        bricks = bricks_of((((0, 0), (1, 0)), ((0, 1), (1, 1))), 2)
        tree = merge_bricks(bricks, span)
        assert len(tree.edges) == 3
        connectors = tree.edges - {((0, 0), (1, 0)), ((0, 1), (1, 1))}
        assert len(connectors) == 1
        # every spanning tree of the 2x2 block is a 3-edge path: 8 turns
        assert tree_turns(tree) == 8

    def test_keeps_all_intra_brick_edges(self, rng):
        for _ in range(20):
            span = random_connected_span(rng)
            bricks = min_brick_tiling(span)
            tree = merge_bricks(bricks, span)
            for brick in bricks.bricks:
                for a, b in zip(brick, brick[1:]):
                    assert normalize_edge(a, b) in tree.edges

    def test_connector_count(self, rng):
        for _ in range(20):
            span = random_connected_span(rng)
            bricks = min_brick_tiling(span)
            tree = merge_bricks(bricks, span)
            intra = sum(len(b) - 1 for b in bricks.bricks)
            assert len(tree.edges) == intra + len(bricks) - 1

    def test_greedy_accepts_minimum_current_cost(self, rng):
        # replay audit: rerun the merge, checking at every acceptance that
        # no other connectable candidate had strictly smaller current cost
        for _ in range(10):
            span = random_connected_span(rng, max_cells=12)
            bricks = min_brick_tiling(span)
            tree = merge_bricks(bricks, span)
            audit_greedy_is_locally_optimal(span, bricks, tree)

    def test_disconnected_graph_rejected(self):
        span = make_span(3, 1, obstacles=((1, 0),))
        bricks = bricks_of((((0, 0),), ((2, 0),)), 1)
        with pytest.raises(DisconnectedGraphError):
            merge_bricks(bricks, span)


def audit_greedy_is_locally_optimal(span, bricks, tree):
    parent = {n: n for n in span.nodes}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    adjacency = {n: set() for n in span.nodes}
    for brick in bricks.bricks:
        for a, b in zip(brick, brick[1:]):
            parent[find(a)] = find(b)
            adjacency[a].add(b)
            adjacency[b].add(a)
    connectors = sorted(
        tree.edges
        - {normalize_edge(a, b) for brick in bricks.bricks
           for a, b in zip(brick, brick[1:])}
    )
    remaining = set(connectors)
    while remaining:
        candidates = [
            e for e in span_edges(span)
            if find(e[0]) != find(e[1])
        ]
        best = min(edge_cost(e, adjacency) for e in candidates)
        accepted = min(
            (e for e in remaining if find(e[0]) != find(e[1])),
            key=lambda e: (edge_cost(e, adjacency), e),
        )
        assert edge_cost(accepted, adjacency) == best
        a, b = accepted
        parent[find(a)] = find(b)
        adjacency[a].add(b)
        adjacency[b].add(a)
        remaining.discard(accepted)


class TestSpanningTree:
    def test_masks_record_leaving_edges(self):
        span = make_span(2, 2, obstacles=((0, 1),))
        for tree in (dfs_tree(span, (0, 0)), kruskal_tree(span, 0),
                     merge_bricks(min_brick_tiling(span), span)):
            # ids x * 2 + y: (0, 0) is 0, (1, 0) is 2 and (1, 1) is 3
            assert list(tree.flat_masks) == [RIGHT, 0, LEFT | DOWN, UP]
            assert tree.edges == {((0, 0), (1, 0)), ((1, 0), (1, 1))}


class TestBaselineTrees:
    def test_dfs_strip(self):
        span = make_span(5, 1)
        tree = dfs_tree(span, (0, 0))
        assert len(tree.edges) == 4

    def test_dfs_2x2_fixed_order(self):
        tree = dfs_tree(make_span(2, 2), (0, 0))
        # right, down, left, up order walks around the block
        assert tree.edges == {
            ((0, 0), (1, 0)), ((1, 0), (1, 1)), ((0, 1), (1, 1))
        }

    def test_dfs_single_node(self):
        tree = dfs_tree(make_span(1, 1), (0, 0))
        assert tree.edges == frozenset()

    def test_kruskal_deterministic(self):
        span = make_span(5, 5)
        assert kruskal_tree(span, 42).edges == kruskal_tree(span, 42).edges

    def test_kruskal_edge_count(self, rng):
        for seed in range(5):
            span = random_connected_span(rng)
            tree = kruskal_tree(span, seed)
            assert len(tree.edges) == len(span.nodes) - 1

    def test_kruskal_strip(self):
        span = make_span(4, 1)
        assert len(kruskal_tree(span, 0).edges) == 3

    def test_match_coordinate_oracles(self, rng):
        spans = [random_connected_span(rng, max_dim=8, max_cells=40)
                 for _ in range(60)]
        for span in spans:
            for root in (min(span.nodes), rng.choice(sorted(span.nodes))):
                assert dfs_tree(span, root).edges == oracles.dfs_tree(span, root)
        # small fixed spans from every root: the DFS's column-wrap guards
        # are crossed at the first and last rows of their columns
        fixed = [make_span(1, 1), make_span(2, 2, obstacles=((1, 1),)),
                 make_span(1, 5), make_span(5, 1), make_span(3, 4)]
        for span in fixed:
            for root in sorted(span.nodes):
                assert dfs_tree(span, root).edges == oracles.dfs_tree(span, root)
        for span in spans + fixed:
            for seed in (0, 1, 42):
                assert (kruskal_tree(span, seed).edges
                        == oracles.kruskal_tree(span, seed))

    @pytest.mark.parametrize("mega", [80, 120])
    def test_match_coordinate_oracles_at_scale(self, mega):
        span = pipeline.build_component(
            bench.generate_random_map((mega, mega), 0.1, mega), None)
        root = min(span.nodes)
        assert dfs_tree(span, root).edges == oracles.dfs_tree(span, root)
        for seed in (0, 7):
            assert (kruskal_tree(span, seed).edges
                    == oracles.kruskal_tree(span, seed))

    def test_bad_input_rejected(self):
        split = make_span(3, 1, obstacles=((1, 0),))
        with pytest.raises(DisconnectedGraphError):
            dfs_tree(split, (0, 0))
        with pytest.raises(DisconnectedGraphError):
            kruskal_tree(split, 0)
        with pytest.raises(ValueError, match="not a spanning node"):
            dfs_tree(split, (1, 0))


class TestTreeTurns:
    def test_strip(self):
        for n in (2, 5, 9):
            span = make_span(n, 1)
            tree = merge_bricks(min_brick_tiling(span), span)
            assert tree_turns(tree) == 4

    def test_single_node(self):
        assert tree_turns(make_tree([(0, 0)], [])) == 4

    def test_sum_of_turn_count_over_neighbours(self, rng):
        # a plus, whose centre has all four edges (mask 15)
        arms = [(2, 1), (1, 2), (0, 1), (1, 0)]
        trees = [make_tree([(1, 1), *arms], [((1, 1), arm) for arm in arms])]
        for _ in range(20):
            span = random_connected_span(rng, max_dim=8, max_cells=40)
            if len(span.nodes) == 1:
                continue
            trees += (merge_bricks(min_brick_tiling(span), span),
                      dfs_tree(span, min(span.nodes)),
                      kruskal_tree(span, 1))
        for tree in trees:
            nbs = {n: [] for n in tree.span.nodes}
            for a, b in tree.edges:
                nbs[a].append(b)
                nbs[b].append(a)
            assert tree_turns(tree) == sum(
                turn_count(n, nbs[n]) for n in tree.span.nodes)

    def test_better_tree_fewer_turns(self):
        # same region, few long bricks vs many short ones
        span = make_span(4, 4)
        good = merge_bricks(min_brick_tiling(span), span)
        worse = dfs_tree(span, (0, 0))
        assert tree_turns(good) <= tree_turns(worse)

    def test_tmstc_beats_kruskal_on_random_maps(self):
        from turncover import bench, pipeline

        wins, reductions = 0, []
        for i in range(20):
            grid = bench.generate_random_map((20, 20), 0.1, 9000 + i)
            turns = pipeline.turns_by_method(grid, kruskal_seed=i)
            if turns["tmstc"] <= turns["kruskal"]:
                wins += 1
            reductions.append(1 - turns["tmstc"] / turns["kruskal"])
        assert wins >= 19
        assert sum(reductions) / len(reductions) >= 0.10


def test_tree_export_format():
    span = make_span(2, 2)
    tree = merge_bricks(min_brick_tiling(span), span)
    lines = tree_to_text(tree).strip().splitlines()
    assert len(lines) == 3
    assert lines == sorted(lines)
    assert all("-" in line and line.startswith("(") for line in lines)
