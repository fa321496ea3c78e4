import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turncover import bench, pipeline
from turncover.grid_map import (
    DisconnectedGraphError,
    GridMap,
    MapFormatError,
    build_spanning_graph,
    connected_component,
    coverage_nodes_of,
    flood_fill,
    parse_map,
)

import oracles
from conftest import random_connected_span, span_edges, span_of

MOVINGAI_4X4 = "type octile\nheight 4\nwidth 4\nmap\n....\n....\n....\n....\n"


class TestParseGrid01:
    def test_body_rows(self):
        grid = parse_map("10\n00\n01\n", "grid01")
        assert (grid.width, grid.height) == (2, 3)
        assert grid.occupied_cells() == [(0, 0), (1, 2)]

    def test_optional_header(self):
        grid = parse_map("3 2\n10\n00\n01\n", "grid01")
        assert (grid.width, grid.height) == (2, 3)

    def test_header_mismatch(self):
        with pytest.raises(MapFormatError):
            parse_map("2 2\n10\n00\n01\n", "grid01")

    def test_ragged_rows(self):
        with pytest.raises(MapFormatError):
            parse_map("10\n000\n", "grid01")

    def test_unknown_glyph(self):
        with pytest.raises(MapFormatError):
            parse_map("1x\n00\n", "grid01")

    def test_empty(self):
        with pytest.raises(MapFormatError):
            parse_map("", "grid01")

    def test_nan_resolution(self):
        with pytest.raises(MapFormatError, match="resolution_d"):
            parse_map(b"00\n00\n", "grid01", float("nan"))


class TestParseMovingai:
    def test_all_free(self):
        grid = parse_map(MOVINGAI_4X4, "movingai")
        assert (grid.width, grid.height) == (4, 4)
        assert grid.free_count() == 16

    def test_tree_and_at_are_occupied(self):
        text = "type octile\nheight 2\nwidth 2\nmap\nT@\n..\n"
        grid = parse_map(text, "movingai")
        assert grid.occupied_cells() == [(0, 0), (1, 0)]

    def test_all_glyph_classes(self):
        text = "type octile\nheight 2\nwidth 4\nmap\n.G@O\nTSW.\n"
        grid = parse_map(text, "movingai")
        assert grid.free_count() == 3

    def test_bad_header(self):
        with pytest.raises(MapFormatError):
            parse_map("type hex\nheight 1\nwidth 1\nmap\n.\n", "movingai")

    def test_row_count_mismatch(self):
        with pytest.raises(MapFormatError):
            parse_map("type octile\nheight 3\nwidth 1\nmap\n.\n.\n", "movingai")

    def test_bytes_input(self):
        grid = parse_map(MOVINGAI_4X4.encode(), "movingai")
        assert grid.free_count() == 16


def all_free(width, height):
    return GridMap(width, height, tuple([False] * (width * height)))


class TestBuildSpanningGraph:
    def test_single_mega_cell(self):
        span = build_spanning_graph(all_free(2, 2))
        assert span.nodes == {(0, 0)}
        assert len(coverage_nodes_of(span.nodes)) == 4
        assert span_edges(span) == []

    def test_4x4_all_free(self):
        span = build_spanning_graph(all_free(4, 4))
        assert len(span.nodes) == 4
        assert len(span_edges(span)) == 4
        assert len(coverage_nodes_of(span.nodes)) == 16

    def test_one_blocked_unit_cell_drops_mega_cell(self):
        cells = [False] * 16
        cells[0] = True  # (0,0)
        span = build_spanning_graph(GridMap(4, 4, tuple(cells)))
        assert len(span.nodes) == 3
        assert (0, 0) not in span.nodes
        assert len(coverage_nodes_of(span.nodes)) == 12

    def test_odd_dims_pad_right_bottom(self):
        span = build_spanning_graph(all_free(5, 5))
        assert span.mega_width == 3 and span.mega_height == 3
        assert span.nodes == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_four_coverage_nodes_per_spanning_node(self):
        for w, h in [(2, 2), (4, 6), (5, 3), (8, 8)]:
            span = build_spanning_graph(all_free(w, h))
            assert len(coverage_nodes_of(span.nodes)) == 4 * len(span.nodes)

    def test_deterministic(self):
        a = build_spanning_graph(all_free(6, 6))
        b = build_spanning_graph(all_free(6, 6))
        assert a.nodes == b.nodes and span_edges(a) == span_edges(b)

    def test_all_blocked_rejected(self):
        with pytest.raises(ValueError, match="no fully free") as info:
            build_spanning_graph(GridMap(2, 2, (True,) * 4))
        assert not isinstance(info.value, MapFormatError)

    def test_matches_per_block_is_free(self):
        rng = random.Random(11)
        for w, h in [(2, 2), (3, 3), (5, 4), (8, 7), (9, 9), (12, 5)]:
            for ratio in (0.05, 0.2):
                cells = tuple(rng.random() < ratio for _ in range(w * h))
                grid = GridMap(w, h, cells)
                expected = frozenset(
                    (mx, my)
                    for my in range((h + 1) // 2)
                    for mx in range((w + 1) // 2)
                    if all(grid.is_free(x, y)
                           for x, y in coverage_nodes_of([(mx, my)])))
                if not expected:
                    continue
                span = build_spanning_graph(grid)
                assert span.nodes == expected
                assert (span.mega_width, span.mega_height) == (
                    (w + 1) // 2, (h + 1) // 2)


@st.composite
def occupancies(draw):
    """Maps up to 13x13, odd and one-wide ones included, with a drawn
    share of occupied unit cells."""
    width, height = draw(st.integers(1, 13)), draw(st.integers(1, 13))
    ratio = draw(st.sampled_from((0.0, 0.05, 0.15, 0.4, 1.0)))
    rnd = draw(st.randoms(use_true_random=False))
    return GridMap(width, height,
                   tuple(rnd.random() < ratio for _ in range(width * height)))


class TestDiscretizationOracle:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(occupancies())
    def test_matches_per_block_loop(self, grid):
        try:
            expected = oracles.build_spanning_graph(grid)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                build_spanning_graph(grid)
            assert (type(info.value), str(info.value)) == (type(exc), str(exc))
            return
        span = build_spanning_graph(grid)
        assert (span.mega_width, span.mega_height) == (
            expected.mega_width, expected.mega_height)
        assert span.free == expected.free
        assert span.ids == expected.ids
        assert span.nodes == expected.nodes


@st.composite
def flag_arrays(draw):
    """``(flags, height, root)``: random flags, checkerboards (with a few
    flipped cells), a single row or a single column; ``root`` is
    flagged."""
    shape = draw(st.sampled_from(("random", "checkerboard", "row", "column")))
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if shape == "row":
        height = 1
    elif shape == "column":
        width = 1
    n = width * height
    if shape == "checkerboard":
        parity = draw(st.integers(0, 1))
        flags = bytearray((x + y + parity) % 2 == 0
                          for x in range(width) for y in range(height))
        for i in draw(st.lists(st.integers(0, n - 1), max_size=4)):
            flags[i] ^= 1
    else:
        flags = bytearray(draw(st.lists(st.integers(0, 1), min_size=n,
                                        max_size=n)))
    root = draw(st.integers(0, n - 1))
    flags[root] = 1
    return flags, height, root


class TestFloodFillOracle:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(flag_arrays())
    def test_run_fill_matches_cell_fill(self, case):
        flags, height, root = case
        todo, expected_todo = bytearray(flags), bytearray(flags)
        reached = flood_fill(todo, height, root)
        expected = oracles.flood_fill(expected_todo, height, root)
        assert len(reached) == len(set(reached))
        assert set(reached) == set(expected)
        assert todo == expected_todo


def two_region_span():
    # regions {(0,0)} and {(2,0),(3,0)} separated by an occupied column
    return span_of(4, 1, {(0, 0), (2, 0), (3, 0)})


class TestConnectedComponent:
    def test_seeds_in_same_region(self):
        sub = connected_component(two_region_span(), [(2, 0), (3, 0)])
        assert sub.nodes == {(2, 0), (3, 0)}

    def test_seeds_in_different_regions(self):
        with pytest.raises(DisconnectedGraphError, match="multiple components"):
            connected_component(two_region_span(), [(0, 0), (2, 0)])

    def test_empty_seed_list_single_component(self):
        span = build_spanning_graph(all_free(4, 4))
        assert connected_component(span, []).nodes == span.nodes

    def test_empty_seed_list_multi_component(self):
        with pytest.raises(DisconnectedGraphError):
            connected_component(two_region_span(), [])

    def test_bad_seed(self):
        with pytest.raises(DisconnectedGraphError):
            connected_component(two_region_span(), [(1, 0)])

    def test_empty_graph_is_its_own_component(self):
        span = span_of(2, 2, ())
        assert connected_component(span, []) == span

    def test_coverage_nodes_of_component(self):
        sub = connected_component(two_region_span(), [(2, 0)])
        assert len(coverage_nodes_of(sub.nodes)) == 8


def _reference_component(span, seeds):
    """The component search as ``min(unseen)`` labelling does it: flood
    every component from its least unlabelled node, then pick the one
    holding the seeds. Returns the component's nodes or the error text."""
    components = []
    unseen = set(span.nodes)
    while unseen:
        root = min(unseen)
        comp, stack = {root}, [root]
        while stack:
            x, y = stack.pop()
            for nb in ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1)):
                if nb in unseen and nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        unseen -= comp
        components.append(comp)
    if not seeds:
        if len(components) > 1:
            return (f"map splits into {len(components)} components and no "
                    "seeds were given to pick one")
        return span.nodes
    homes = {seed: next(i for i, c in enumerate(components) if seed in c)
             for seed in seeds}
    if len(set(homes.values())) > 1:
        offenders = sorted(homes.items(), key=lambda kv: kv[1])
        detail = ", ".join(f"{seed} in component {idx}"
                           for seed, idx in offenders)
        return f"seeds span multiple components: {detail}"
    return frozenset(components[next(iter(homes.values()))])


def _component_or_error(span, seeds):
    try:
        return connected_component(span, seeds).nodes
    except DisconnectedGraphError as exc:
        return str(exc)


def checkerboard_map(mega):
    """Free top row over a checkerboard of free and blocked mega cells:
    one 180-node component at mega 120 and about 7,100 single cells."""
    free = {(mx, my) for my in range(mega) for mx in range(mega)
            if my == 0 or (mx + my) % 2 == 0}
    side = 2 * mega
    return GridMap(side, side, tuple((x // 2, y // 2) not in free
                                     for y in range(side)
                                     for x in range(side)))


class TestComponentOracle:
    def test_matches_min_unseen_labelling_on_split_maps(self):
        rng = random.Random(5)
        for _ in range(40):
            w, h = rng.randint(1, 12), rng.randint(1, 12)
            cells = tuple(rng.random() < 0.3 for _ in range(w * h))
            try:
                span = build_spanning_graph(GridMap(w, h, cells))
            except ValueError:
                continue
            nodes = sorted(span.nodes)
            cases = [[]] + [rng.sample(nodes, min(len(nodes), k))
                            for k in (1, 2, 3)]
            for seeds in cases:
                assert _component_or_error(span, seeds) == (
                    _reference_component(span, seeds))

    @pytest.mark.parametrize("mega", [80, 120])
    def test_matches_min_unseen_labelling_on_random_maps(self, mega):
        span = pipeline.build_component(
            bench.generate_random_map((mega, mega), 0.1, 7), None)
        seeds = sorted(span.nodes)[:: len(span.nodes) // 3]
        for case in ([], seeds):
            assert _component_or_error(span, case) == (
                _reference_component(span, case))

    def test_matches_min_unseen_labelling_on_checkerboard(self):
        span = build_spanning_graph(checkerboard_map(20))
        for seeds in ([], [(0, 0)], [(3, 1)], [(0, 0), (1, 1), (0, 2)],
                      [(4, 4), (0, 0), (6, 6)]):
            assert _component_or_error(span, seeds) == (
                _reference_component(span, seeds))

    def test_random_connected_spans(self, rng):
        for _ in range(30):
            span = random_connected_span(rng, max_dim=8, max_cells=40)
            seeds = [min(span.nodes), max(span.nodes)]
            for case in ([], seeds):
                assert _component_or_error(span, case) == (
                    _reference_component(span, case))


def test_component_search_is_one_flood_fill():
    """Labelling every component per search is O(nodes x components):
    about 1.9 s on this map with ~7,100 components on a 2-vCPU VM. One
    flood fill from the seed takes milliseconds; the bound leaves wide
    room for a slow host."""
    grid = checkerboard_map(120)
    t0 = time.perf_counter()
    span = pipeline.build_component(grid, [(0, 0)])
    elapsed = time.perf_counter() - t0
    assert len(span.nodes) == 180
    assert elapsed < 0.5


class TestFlatLayout:
    def test_ids_follow_sorted_nodes(self, rng):
        for _ in range(20):
            span = random_connected_span(rng, max_dim=8, max_cells=40)
            h = span.mega_height
            assert span.ids == [x * h + y for x, y in sorted(span.nodes)]
            assert sum(span.free) == len(span.nodes)
            assert len(span.free) == span.mega_width * h
