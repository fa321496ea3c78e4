import inspect
import random
import sys

import pytest

from turncover import bench, pipeline
from turncover.brick_tiling import (
    build_segment_graph,
    max_independent_set,
    maximum_matching,
    min_brick_tiling,
    tiling_from_independent_set,
    tiling_to_text,
)

from conftest import make_span, random_connected_span, span_edges
from oracles import (
    VERTICAL,
    ReferenceSegmentGraph,
    brute_force_min_tiling,
    hopcroft_karp,
)

# 3x4 grid with four obstacles reconstructing the worked border-deletion
# example: 8 free cells, 4 vertical borders, best deletable set of 5.
FIG_OBSTACLES = ((1, 0), (1, 1), (2, 0), (3, 0))


def fig_span():
    return make_span(4, 3, FIG_OBSTACLES)


def vertical_ids(graph):
    """The vertical segment ids, read off the orientation bytes."""
    return [s for s in graph.segments if graph.vertical[s]]


class TestSegmentGraph:
    def test_full_3x4_grid_counts(self):
        graph = build_segment_graph(make_span(4, 3))
        assert len(graph.segments) == 17
        assert len(vertical_ids(graph)) == 9
        assert len(graph.horizontal_ids) == 8

    def test_strip_all_parallel(self):
        graph = build_segment_graph(make_span(5, 1))
        assert len(graph.segments) == 4
        assert all(graph.vertical)
        assert graph.edges == ()

    def test_2x2_complete_bipartite(self):
        graph = build_segment_graph(make_span(2, 2))
        assert len(graph.segments) == 4
        assert len(graph.horizontal_ids) == 2
        assert len(vertical_ids(graph)) == 2
        assert len(graph.edges) == 4  # all meet at the center point

    def test_bipartite_by_orientation(self, rng):
        for _ in range(30):
            span = random_connected_span(rng)
            graph = build_segment_graph(span)
            for h, v in graph.edges:
                assert not graph.vertical[h]
                assert graph.vertical[v]

    def test_segment_orientation_perpendicular_to_pair_axis(self):
        span = make_span(2, 2)
        graph = build_segment_graph(span)
        pairs = []
        for s in graph.segments:
            x, y = divmod(graph.first_cell[s], span.mega_height)
            pairs.append(((x, y), (x + 1, y) if graph.vertical[s]
                          else (x, y + 1)))
        # the border below (0, 0), then the ones right of (0, 0) and
        # (0, 1), then the one below (1, 0)
        assert pairs == [((0, 0), (0, 1)), ((0, 0), (1, 0)),
                         ((0, 1), (1, 1)), ((1, 0), (1, 1))]

    def test_edges_match_endpoint_buckets(self, rng):
        spans = [random_connected_span(rng, max_dim=8, max_cells=40)
                 for _ in range(30)]
        spans += [fig_span(), make_span(4, 3), make_span(1, 1)]
        spans += [pipeline.build_component(
            bench.generate_random_map((20, 20), 0.2, seed), None)
            for seed in range(3)]
        for span in spans:
            graph = build_segment_graph(span)
            assert graph.edges == ReferenceSegmentGraph(span).edges
            assert graph.first_cell == sorted(graph.first_cell)


class TestMaximumMatching:
    def test_full_3x4_grid(self):
        graph = build_segment_graph(make_span(4, 3))
        assert len(maximum_matching(graph)) == 8

    def test_edgeless(self):
        graph = build_segment_graph(make_span(5, 1))
        assert maximum_matching(graph) == frozenset()

    def test_2x2_grid(self):
        graph = build_segment_graph(make_span(2, 2))
        assert len(maximum_matching(graph)) == 2

    def test_matching_edges_vertex_disjoint(self, rng):
        for _ in range(30):
            graph = build_segment_graph(random_connected_span(rng))
            matching = maximum_matching(graph)
            used = [x for e in matching for x in e]
            assert len(used) == len(set(used))
            assert all(e in set(graph.edges) for e in matching)

    def test_against_brute_force(self, rng):
        from itertools import combinations

        for _ in range(15):
            graph = build_segment_graph(random_connected_span(rng, max_cells=8))
            matching = maximum_matching(graph)
            edges = list(graph.edges)
            best = 0
            for size in range(len(matching), min(len(edges), 6) + 1):
                for combo in combinations(edges, size):
                    used = [x for e in combo for x in e]
                    if len(used) == len(set(used)):
                        best = max(best, size)
            assert len(matching) == best


def _reference_independent_set(graph, matching):
    """The Koenig step on dicts and sets: alternating-path reachability
    from the unmatched horizontal segments over the sorted edges; the
    cover is the unreached horizontal and the reached vertical ones."""
    match_h = {h: v for h, v in matching}
    match_v = {v: h for h, v in matching}
    adj_h = {h: [] for h in graph.horizontal_ids}
    for h, v in sorted(graph.edges):
        adj_h[h].append(v)
    frontier = [h for h in graph.horizontal_ids if h not in match_h]
    reachable = set(frontier)
    while frontier:
        nxt = []
        for h in frontier:
            for v in adj_h[h]:
                if v in reachable or match_h.get(h) == v:
                    continue
                reachable.add(v)
                back = match_v.get(v)
                if back is not None and back not in reachable:
                    reachable.add(back)
                    nxt.append(back)
        frontier = nxt
    h_ids = set(graph.horizontal_ids)
    v_ids = set(vertical_ids(graph))
    cover = (h_ids - reachable) | (v_ids & reachable)
    return frozenset((h_ids | v_ids) - cover)


def _reference_tiling(span, graph, keep):
    """Bricks by union-find over the kept borders, grouped in sorted node
    order, each checked straight and sorted, then ordered by the (y, x)
    of their first cells."""
    parent = {c: c for c in span.nodes}

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for seg_id in keep:
        x, y = divmod(graph.first_cell[seg_id], span.mega_height)
        b = (x + 1, y) if graph.vertical[seg_id] else (x, y + 1)
        parent[find((x, y))] = find(b)
    groups = {}
    for cell in sorted(span.nodes):
        groups.setdefault(find(cell), []).append(cell)
    bricks = []
    for cells in groups.values():
        xs = {c[0] for c in cells}
        ys = {c[1] for c in cells}
        axis = 1 if len(xs) == 1 else 0
        assert len(xs) == 1 or len(ys) == 1
        cells.sort(key=lambda c: c[axis])
        assert all(b[axis] == a[axis] + 1 for a, b in zip(cells, cells[1:]))
        bricks.append(tuple(cells))
    bricks.sort(key=lambda b: (b[0][1], b[0][0]))
    return tuple(bricks)


def _oracle_spans():
    rng = random.Random(77)
    spans = [random_connected_span(rng, max_dim=8, max_cells=40)
             for _ in range(30)]
    spans += [fig_span(), make_span(4, 3), make_span(1, 1), make_span(1, 6),
              make_span(6, 1)]
    return spans


class TestFlatStagesMatchOracles:
    """The Koenig step and the tiling on flat ids against the coordinate
    code they replaced."""

    @staticmethod
    def check(span):
        graph = build_segment_graph(span)
        matching = maximum_matching(graph)
        keep = max_independent_set(graph, matching)
        assert keep == _reference_independent_set(graph, matching)
        bricks = tiling_from_independent_set(span, graph, keep)
        assert bricks.bricks == _reference_tiling(span, graph, keep)

    def test_random_connected_spans(self):
        for span in _oracle_spans():
            self.check(span)

    @pytest.mark.parametrize("mega", [80, 120])
    def test_random_maps(self, mega):
        self.check(pipeline.build_component(
            bench.generate_random_map((mega, mega), 0.1, 7), None))

    def test_non_maximum_keep_sets(self):
        # any independent set tiles: here all vertical or all horizontal
        for span in _oracle_spans():
            graph = build_segment_graph(span)
            for keep in (frozenset(vertical_ids(graph)),
                         frozenset(graph.horizontal_ids)):
                assert tiling_from_independent_set(span, graph, keep).bricks \
                    == _reference_tiling(span, graph, keep)


def random_map_graph(mega, ratio, seed):
    grid = bench.generate_random_map((mega, mega), ratio, seed)
    return build_segment_graph(pipeline.build_component(grid, None))


def diagonal_slash_graph():
    """60x60 mega cells cut by diagonal obstacle slashes; the greedy seed
    leaves 25 augmenting paths to the phases."""
    obstacles = [(x, y) for y in range(60) for x in range(60)
                 if (x + 2 * y) % 7 == 0 and x % 5]
    return build_segment_graph(make_span(60, 60, obstacles))


class TestMatchingOracle:
    """Matching size against networkx Hopcroft-Karp on large maps, and the
    Koenig independent set's independence of which maximum matching it
    is given."""

    @pytest.mark.parametrize("make_graph", [
        lambda: random_map_graph(80, 0.1, 1),
        lambda: random_map_graph(80, 0.05, 2),
        lambda: random_map_graph(120, 0.1, 3),
        diagonal_slash_graph,
    ], ids=["mega80-r10", "mega80-r5", "mega120-r10", "slashes60"])
    def test_size_and_keep_match_networkx(self, make_graph):
        import networkx as nx

        graph = make_graph()
        h_ids = graph.horizontal_ids
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(len(graph.segments)))
        nx_graph.add_edges_from(graph.edges)
        mate = nx.bipartite.hopcroft_karp_matching(nx_graph, top_nodes=h_ids)
        reference = frozenset((h, mate[h]) for h in h_ids if h in mate)
        matching = maximum_matching(graph)
        assert len(matching) == len(reference)
        assert max_independent_set(graph, matching) == max_independent_set(
            graph, reference)


def artifact_spans():
    """The maps of the plan-large-* and *-scale artifacts."""
    return [pipeline.build_component(bench.generate_random_map(*args), None)
            for args in (((40, 40), 0.15, 3), ((80, 80), 0.1, 7))]


def small_spans():
    """Strips, a single cell, and isolated cells with no edge at all."""
    return [make_span(1, 30), make_span(30, 1), make_span(1, 1),
            make_span(5, 5, [(x, y) for x in range(5) for y in range(5)
                             if (x + y) % 2])]


class TestBorders:
    """``span.borders``, the one edge list the segment graph, the brick
    merge and the Kruskal baseline read."""

    @pytest.mark.parametrize("spans", [_oracle_spans, artifact_spans,
                                       small_spans],
                             ids=["oracle-spans", "artifact-maps", "small"])
    def test_lists_span_edges_in_sorted_order(self, spans):
        for span in spans():
            first, right = span.borders
            height = span.mega_height
            assert len(first) == len(right) and set(right) <= {0, 1}
            assert [(divmod(a, height),
                     divmod(a + height if r else a + 1, height))
                    for a, r in zip(first, right)] == span_edges(span)

    def test_tiling_stages_build_no_edge_tuple(self):
        span = artifact_spans()[0]
        graph = build_segment_graph(span)
        assert graph.first_cell is span.borders[0]
        assert graph.vertical is span.borders[1]
        keep = max_independent_set(graph, maximum_matching(graph))
        tiling_from_independent_set(span, graph, keep)
        assert "edges" not in graph.__dict__
        assert len(graph.edges) == len(ReferenceSegmentGraph(span).edges)


class TestSegmentView:
    """The flat arrays of the segment graph against the coordinate
    construction they replaced."""

    @pytest.mark.parametrize("spans", [_oracle_spans, artifact_spans],
                             ids=["oracle-spans", "artifact-maps"])
    def test_matches_coordinate_construction(self, spans):
        for span in spans():
            graph = build_segment_graph(span)
            ref = ReferenceSegmentGraph(span)
            height = span.mega_height
            cells = [s.cells[0] for s in ref.segments]
            assert len(graph.segments) == len(ref.segments)
            assert graph.first_cell == [x * height + y for x, y in cells]
            assert graph.vertical == bytes(s.orientation == VERTICAL
                                           for s in ref.segments)
            assert graph.horizontal_ids == ref.horizontal_ids
            assert vertical_ids(graph) == ref.vertical_ids
            assert graph.adjacency == ref.adjacency
            assert graph.edges == ref.edges


def serpentine_span(corridors, width, length):
    """Vertical corridors ``width`` columns wide and ``length`` rows long,
    side by side behind one-column walls that open at the bottom and at
    the top in turn."""
    walls = []
    for k in range(corridors - 1):
        x = k * (width + 1) + width
        gap = length - 1 if k % 2 == 0 else 0
        walls += [(x, y) for y in range(length) if y != gap]
    return make_span(corridors * (width + 1) - 1, length, walls)


def comb_span(teeth, length, spine):
    """A spine ``spine`` columns wide down the left edge and ``teeth``
    one-row teeth ``length`` cells long to its right, one row apart."""
    height = 2 * teeth - 1
    gaps = [(x, y) for x in range(spine, spine + length)
            for y in range(1, height, 2)]
    return make_span(spine + length, height, gaps)


def random_obstacle_span(mega, ratio, seed):
    """A mega x mega grid with each cell blocked with probability
    ``ratio``; not necessarily connected, which the tiling does not
    need."""
    rng = random.Random(seed)
    return make_span(mega, mega, [(x, y) for x in range(mega)
                                  for y in range(mega) if rng.random() < ratio])


class TestMatchingDifferential:
    """Pothen-Fan against the Hopcroft-Karp oracle: a valid matching of
    the same size, and the same Koenig set and bricks, which do not
    depend on which maximum matching is taken."""

    @staticmethod
    def check(span):
        graph = build_segment_graph(span)
        matching = maximum_matching(graph)
        edges = set(graph.edges)
        assert matching <= edges
        used = [x for pair in matching for x in pair]
        assert len(used) == len(set(used))
        reference = hopcroft_karp(graph)
        assert len(matching) == len(reference)
        keep = max_independent_set(graph, matching)
        assert keep == max_independent_set(graph, reference)
        assert min_brick_tiling(span).bricks == tiling_from_independent_set(
            span, graph, keep).bricks

    def test_oracle_spans(self):
        for span in _oracle_spans():
            self.check(span)

    @pytest.mark.parametrize("mega", [30, 40])
    @pytest.mark.parametrize("ratio", [0.05, 0.1, 0.2, 0.3])
    def test_random_maps(self, mega, ratio):
        for seed in range(2):
            self.check(random_obstacle_span(mega, ratio, seed))

    @pytest.mark.parametrize("span", small_spans(), ids=[
        "strip-1xn", "strip-nx1", "single-cell", "isolated-cells"])
    def test_edgeless_spans(self, span):
        assert build_segment_graph(span).edges == ()
        self.check(span)

    @pytest.mark.parametrize("span", [
        serpentine_span(6, 2, 40), serpentine_span(5, 3, 30),
        serpentine_span(4, 4, 25), comb_span(12, 15, 2), comb_span(10, 12, 4),
    ], ids=["serpentine-w2", "serpentine-w3", "serpentine-w4", "comb-w2",
            "comb-w4"])
    def test_long_path_families(self, span):
        # the greedy seed falls short here, and the augmenting paths the
        # phases must find run through 22 to 41 horizontal segments
        graph = build_segment_graph(span)
        mate = set()
        for h in graph.horizontal_ids:
            free = [v for v in graph.adjacency[h] if v not in mate]
            mate.update(free[:1])
        assert len(mate) < len(hopcroft_karp(graph))
        self.check(span)


def test_tiling_does_not_recurse():
    grid = bench.generate_random_map((40, 40), 0.1, 4)
    span = pipeline.build_component(grid, None)
    graph = build_segment_graph(span)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        matching = maximum_matching(graph)
        bricks = min_brick_tiling(span)
        plans = [pipeline.plan(grid, k=k) for k in (1, 4)]
    finally:
        sys.setrecursionlimit(limit)
    assert matching == maximum_matching(graph)
    assert len(bricks) == len(span.nodes) - (len(graph.segments)
                                             - len(matching))
    for result, k in zip(plans, (1, 4)):
        assert result.plan == pipeline.plan(grid, k=k).plan


class TestMaxIndependentSet:
    def test_size_identity(self, rng):
        for _ in range(30):
            graph = build_segment_graph(random_connected_span(rng))
            matching = maximum_matching(graph)
            keep = max_independent_set(graph, matching)
            assert len(keep) == len(graph.segments) - len(matching)

    def test_independence(self, rng):
        for _ in range(30):
            graph = build_segment_graph(random_connected_span(rng))
            keep = max_independent_set(graph, maximum_matching(graph))
            for h, v in graph.edges:
                assert not (h in keep and v in keep)

    def test_edgeless_keeps_everything(self):
        graph = build_segment_graph(make_span(5, 1))
        keep = max_independent_set(graph, frozenset())
        assert keep == frozenset(range(4))

    def test_single_edge_keeps_one(self):
        span = make_span(2, 2, obstacles=((1, 1),))  # L of 3 cells, 2 segments
        graph = build_segment_graph(span)
        assert len(graph.segments) == 2 and len(graph.edges) == 1
        keep = max_independent_set(graph, maximum_matching(graph))
        assert len(keep) == 1

    def test_fig_layout_max_set_of_five(self):
        graph = build_segment_graph(fig_span())
        keep = max_independent_set(graph, maximum_matching(graph))
        assert len(keep) == 5


class TestTiling:
    def test_fig_layout_minimum_three_bricks(self):
        span = fig_span()
        graph = build_segment_graph(span)
        keep = max_independent_set(graph, maximum_matching(graph))
        assert len(tiling_from_independent_set(span, graph, keep)) == 3

    def test_fig_layout_all_vertical_gives_four(self):
        span = fig_span()
        graph = build_segment_graph(span)
        all_vertical = frozenset(vertical_ids(graph))
        assert len(all_vertical) == 4
        assert len(tiling_from_independent_set(span, graph, all_vertical)) == 4

    def test_empty_keep_one_brick_per_cell(self):
        span = make_span(3, 3)
        graph = build_segment_graph(span)
        bricks = tiling_from_independent_set(span, graph, frozenset())
        assert len(bricks) == 9
        assert all(len(b) == 1 for b in bricks.bricks)

    def test_non_independent_set_rejected(self):
        span = make_span(2, 2)
        graph = build_segment_graph(span)
        h, v = graph.edges[0]
        with pytest.raises(ValueError, match="not a straight brick"):
            tiling_from_independent_set(span, graph, frozenset({h, v}))

    def test_every_bent_pair_rejected(self):
        # each conflict edge bends a block: a cell deleting both borders,
        # a run that turns, or a cell entered from the left and from above
        span = make_span(3, 3)
        graph = build_segment_graph(span)
        for h, v in graph.edges:
            with pytest.raises(ValueError, match="not a straight brick"):
                tiling_from_independent_set(span, graph, frozenset({h, v}))

    def test_bricks_partition_nodes(self, rng):
        for _ in range(30):
            span = random_connected_span(rng)
            bricks = min_brick_tiling(span)
            cells = [c for b in bricks.bricks for c in b]
            assert len(cells) == len(set(cells)) == len(span.nodes)
            assert set(cells) == set(span.nodes)

    def test_bricks_are_straight_and_consecutive(self, rng):
        for _ in range(30):
            span = random_connected_span(rng)
            for brick in min_brick_tiling(span).bricks:
                xs = {c[0] for c in brick}
                ys = {c[1] for c in brick}
                assert len(xs) == 1 or len(ys) == 1
                for a, b in zip(brick, brick[1:]):
                    assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


class TestMinBrickTiling:
    def test_full_3x4_grid_three_bricks(self):
        assert len(min_brick_tiling(make_span(4, 3))) == 3

    def test_strip_is_one_brick(self):
        assert len(min_brick_tiling(make_span(6, 1))) == 1

    def test_2x2_two_bricks(self):
        assert len(min_brick_tiling(make_span(2, 2))) == 2
        assert brute_force_min_tiling(make_span(2, 2)) == 2

    def test_count_identity(self, rng):
        for _ in range(40):
            span = random_connected_span(rng)
            graph = build_segment_graph(span)
            matching = maximum_matching(graph)
            keep = max_independent_set(graph, matching)
            bricks = tiling_from_independent_set(span, graph, keep)
            assert len(bricks) == len(span.nodes) - len(keep)

    def test_matches_oracle(self, rng):
        for _ in range(40):
            span = random_connected_span(rng, max_cells=16)
            assert len(min_brick_tiling(span)) == brute_force_min_tiling(span)


class TestOracle:
    def test_single_cell(self):
        assert brute_force_min_tiling(make_span(1, 1)) == 1

    def test_2x3(self):
        assert brute_force_min_tiling(make_span(3, 2)) == 2

    def test_too_large(self):
        with pytest.raises(ValueError, match="too large"):
            brute_force_min_tiling(make_span(5, 4))


def test_tiling_export_stable_ids():
    span = make_span(4, 3)
    text = tiling_to_text(span, min_brick_tiling(span))
    rows = text.strip().splitlines()
    assert len(rows) == 3
    # row-major top-left ordering: first row is brick 0
    assert rows[0].split() == ["0"] * 4
