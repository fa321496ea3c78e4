import random

import pytest

from turncover.grid_map import (
    DisconnectedGraphError,
    GridMap,
    MapFormatError,
    SpanningGraph,
    build_spanning_graph,
    connected_component,
    coverage_nodes_of,
    parse_map,
)

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
        assert span.edges() == []

    def test_4x4_all_free(self):
        span = build_spanning_graph(all_free(4, 4))
        assert len(span.nodes) == 4
        assert len(span.edges()) == 4
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
        assert a.nodes == b.nodes and a.edges() == b.edges()

    def test_all_blocked_rejected(self):
        with pytest.raises(MapFormatError):
            build_spanning_graph(GridMap(2, 2, (True,) * 4))

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


def two_region_span():
    # regions {(0,0)} and {(2,0),(3,0)} separated by an occupied column
    nodes = frozenset({(0, 0), (2, 0), (3, 0)})
    return SpanningGraph(4, 1, nodes)


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

    def test_coverage_nodes_of_component(self):
        sub = connected_component(two_region_span(), [(2, 0)])
        assert len(coverage_nodes_of(sub.nodes)) == 8
