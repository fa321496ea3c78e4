"""Value semantics of the immutable records: construction, defaults,
checks, field-wise equality and hashing, repr, immutability, the
cached derived arrays and the coordinate views that a plan leaves
unbuilt."""

import gc
import math
import tracemalloc

import pytest

from turncover import bench, cli, grid_map, pipeline
from turncover.balance import CoveragePlan, RobotAssignment
from turncover.bench import RunReport, Scenario
from turncover.brick_tiling import (BrickSet, SegmentGraph, build_segment_graph,
                                    min_brick_tiling)
from turncover.coverage_path import CoverageLoop, RobotParams
from turncover.grid_map import (GridMap, MapFormatError, SpanningGraph,
                                build_spanning_graph)
from turncover.pipeline import PlanResult
from turncover.tree_builder import SpanningTree

import oracles
from conftest import bricks_of, runs_of, span_of

LOOP = ((0, 0), (0, 1), (1, 1), (1, 0))  # unit cells of a 2-row grid


def _cases():
    """``(class, field names, positional values)`` for every record, built
    afresh on each call so that two calls give equal, not identical,
    values."""
    grid = GridMap(2, 2, b"\0\1\0\0", 0.25)
    span = span_of(2, 2, {(0, 0), (1, 0), (0, 1), (1, 1)})
    robot = RobotAssignment(0, 1, 1, 3, runs_of(LOOP[1:], 2), 2, 3, 2.5)
    plan = CoveragePlan((robot,))
    return [
        (GridMap, ("width", "height", "cells", "resolution_d"),
         (2, 2, b"\0\1\0\0", 0.25)),
        (SpanningGraph, ("mega_width", "mega_height", "free"),
         (3, 1, b"\1\0\1")),
        (SpanningTree, ("span", "flat_masks"),
         (span_of(2, 1, {(0, 0), (1, 0)}), b"\1\4")),
        (SegmentGraph,
         ("first_cell", "vertical", "horizontal_ids", "adjacency"),
         ([0, 0, 1, 2], b"\0\1\1\0", [0, 3], [(1, 2), (), (), ()])),
        (BrickSet, ("runs", "height"), ((range(0, 3, 2), range(1, 2)), 2)),
        (RobotParams, ("accel", "v_max", "omega"), (1.0, 2.0, 3.0)),
        (CoverageLoop, ("runs", "rows", "resolution_d"),
         (runs_of(LOOP, 2), 2, 0.25)),
        (RobotAssignment,
         ("robot_id", "anchored", "arc_start", "arc_length", "runs", "rows",
          "twists", "time"),
         (0, 1, 1, 3, runs_of(LOOP[1:], 2), 2, 3, 2.5)),
        (CoveragePlan, ("robots",), ((robot,),)),
        (PlanResult, ("span", "bricks", "tree", "loop", "plan", "tree_turns"),
         (span, BrickSet((range(0, 1),), 2),
          SpanningTree(span_of(1, 1, {(0, 0)}), b"\0"),
          CoverageLoop(runs_of(LOOP, 2), 2, 0.5), plan, 4)),
        (Scenario,
         ("name", "grid", "k", "starts", "params", "tree_method", "seed"),
         ("s", grid, 2, ((0, 0), (0, 2)), RobotParams(1.0), "dfs", 5)),
        (RunReport,
         ("scenario", "tree_method", "k", "brick_count", "loop_length",
          "turns_by_method", "max_time", "min_time", "planning_seconds"),
         ("s", "tmstc", 2, 3, 16, {"tmstc": 4, "dfs": 6, "kruskal": 8},
          1.5, 0.5, 0.01)),
    ]


IDS = [cls.__name__ for cls, _, _ in _cases()]
UNHASHABLE = (SegmentGraph, RunReport)  # they hold lists or a dict
# one field each, set to a value differing from the one in _cases
CHANGED = {
    GridMap: ("resolution_d", 0.5),
    SpanningGraph: ("mega_width", 4),
    SpanningTree: ("flat_masks", b"\1\0"),
    SegmentGraph: ("horizontal_ids", [0]),
    BrickSet: ("height", 3),
    RobotParams: ("omega", 0.5),
    CoverageLoop: ("rows", 4),
    RobotAssignment: ("rows", 4),
    CoveragePlan: ("robots", ()),
    PlanResult: ("tree_turns", 5),
    Scenario: ("seed", 6),
    RunReport: ("planning_seconds", 0.02),
}


@pytest.mark.parametrize("i", range(len(IDS)), ids=IDS)
class TestRecord:
    def test_positional_and_keyword_construction(self, i):
        cls, names, values = _cases()[i]
        record = cls(*values)
        assert record == cls(**dict(zip(names, values)))
        assert [getattr(record, n) for n in names] == list(values)

    def test_each_field_bound_exactly_once(self, i):
        cls, names, values = _cases()[i]
        named = dict(zip(names, values))
        rest = dict(zip(names[1:], values[1:]))
        calls = [lambda: cls(*values, values[0]),  # one value too many
                 lambda: cls(values[0], **named),  # first field given twice
                 lambda: cls(*values, extra=1)]  # unknown field
        if cls is not RobotParams:  # each of its fields has a default
            calls.append(lambda: cls(**rest))  # first field missing
        for call in calls:
            with pytest.raises(TypeError):
                call()

    def test_dataclass_style_repr(self, i):
        cls, names, values = _cases()[i]
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
        assert repr(cls(*values)) == f"{cls.__name__}({fields})"

    def test_equal_fields_equal_objects(self, i):
        cls, _, values = _cases()[i]
        a, b = cls(*values), cls(*_cases()[i][2])
        assert a == b and not a != b
        assert a != tuple(values)  # only records of its class are equal
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_one_changed_field_unequal(self, i):
        cls, names, values = _cases()[i]
        name, value = CHANGED[cls]
        other = dict(zip(names, values), **{name: value})
        assert cls(*values) != cls(**other)

    def test_immutable(self, i):
        cls, names, values = _cases()[i]
        record = cls(*values)
        for name in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert [getattr(record, n) for n in names] == list(values)
        assert not hasattr(record, "extra")


class TestDefaults:
    def test_robot_params(self):
        params = RobotParams()
        assert (params.accel, params.v_max, params.omega) == (0.6, 0.5, 0.8)
        assert RobotParams(1.0) == RobotParams(1.0, 0.5, 0.8)
        assert RobotParams(omega=2.0) == RobotParams(0.6, 0.5, 2.0)

    def test_resolution(self):
        assert GridMap(1, 1, (False,)).resolution_d == 0.5

    def test_scenario(self):
        grid = GridMap(2, 2, (False,) * 4)
        scenario = Scenario("s", grid)
        assert (scenario.k, scenario.starts, scenario.params,
                scenario.tree_method, scenario.seed) == (
                    1, None, RobotParams(), "tmstc", 0)
        assert scenario == Scenario("s", grid, 1, None, RobotParams(),
                                    "tmstc", 0)


class TestChecks:
    @pytest.mark.parametrize("args", [
        (0, 1, ()), (1, 0, ()), (-1, 2, ()),  # dimensions below 1
        (2, 1, (False,)), (1, 1, (False, False)),  # cell count
        (1, 1, (False,), 0.0), (1, 1, (False,), -0.5),
        (1, 1, (False,), math.nan),  # resolution not positive
        (1, 1, (2,)), (1, 1, b"\x02"), (1, 1, (None,)),  # not 0 or 1
    ])
    def test_grid_map(self, args):
        with pytest.raises(MapFormatError):
            GridMap(*args)

    @pytest.mark.parametrize("field", ["accel", "v_max", "omega"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_robot_params(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be strictly"):
            RobotParams(**{field: value})

    def test_scenario(self):
        grid = GridMap(2, 2, (False,) * 4)
        for k in (0, -3):
            with pytest.raises(ValueError, match="at least 1"):
                Scenario("s", grid, k)
        with pytest.raises(ValueError, match="unknown tree method"):
            Scenario("s", grid, tree_method="aco")


def test_map_cells_are_occupancy_bytes():
    """Bools, 0/1 ints and bytes give one map, stored as its occupancy
    bytes; both file formats parse to those bytes too."""
    grids = [GridMap(2, 2, cells) for cells in
             ((False, True, True, False), [0, 1, 1, 0], b"\0\1\1\0")]
    parsed = [grid_map.parse_map("01\n10\n", "grid01"),
              grid_map.parse_map("type octile\nheight 2\nwidth 2\nmap\n"
                                 ".@\n@.\n", "movingai")]
    for grid in grids + parsed:
        assert type(grid.cells) is bytes and grid.cells == b"\0\1\1\0"
        assert grid == grids[0] and hash(grid) == hash(grids[0])


class TestCachedArrays:
    def test_spanning_graph(self):
        span = span_of(2, 2, {(0, 0), (1, 0), (0, 1)})
        twin = span_of(2, 2, {(0, 0), (1, 0), (0, 1)})
        for name in ("nodes", "borders"):
            first = getattr(span, name)
            assert getattr(span, name) is first
        assert span.free == b"\1\1\1\0" and span.ids == [0, 1, 2]
        # the id list is built on each read and never kept on the graph
        assert "ids" not in vars(span)
        # derived arrays take no part in equality and hashing
        assert span == twin and hash(span) == hash(twin)

    def test_segment_graph_edges(self):
        graph = build_segment_graph(
            span_of(2, 2, {(0, 0), (1, 0), (0, 1), (1, 1)}))
        edges = graph.edges
        assert graph.edges is edges
        assert edges == ((0, 1), (0, 2), (3, 1), (3, 2))


class TestLazyViews:
    """A graph is its flags and a brick set its id runs; their coordinate
    views, derived on first access, equal the coordinate oracles."""

    @pytest.mark.parametrize("size", [(9, 7), (20, 20)])
    def test_discretized_graph_is_its_node_set(self, size):
        grid = bench.generate_random_map(size, 0.2, 3)
        odd = GridMap(grid.width + 1, grid.height + 1, tuple(
            x == grid.width or y == grid.height or grid.is_occupied(x, y)
            for y in range(grid.height + 1) for x in range(grid.width + 1)))
        for source in (grid, odd):
            graph = build_spanning_graph(source)
            oracle = oracles.build_spanning_graph(source)
            assert graph == oracle and hash(graph) == hash(oracle)
            assert repr(graph) == repr(oracle)
            width, height = graph.mega_width, graph.mega_height
            assert graph.nodes == oracle.nodes == {
                (x, y) for x in range(width) for y in range(height)
                if graph.free[x * height + y]}

    def test_tiling_is_its_coordinate_bricks(self):
        span = pipeline.build_component(
            bench.generate_random_map((9, 7), 0.2, 3), None)
        bricks = min_brick_tiling(span)
        height = span.mega_height
        assert bricks.height == height
        twin = bricks_of(bricks.bricks, height)
        assert twin.runs == tuple(map(tuple, bricks.runs))
        assert twin.bricks == bricks.bricks and len(twin) == len(bricks)
        for run, brick in zip(bricks.runs, bricks.bricks):
            assert brick == tuple((i // height, i % height) for i in run)


# the coordinate view each record derives on first access
VIEWS = {SpanningGraph: "nodes", BrickSet: "bricks", SpanningTree: "edges",
         CoverageLoop: "nodes", RobotAssignment: "sequence"}


def _built_views(recorded):
    """The coordinate views built on the recorded records: the names
    found in their ``__dict__``."""
    built = []
    for obj in recorded:
        name = VIEWS[type(obj)]
        if name in obj.__dict__:
            built.append(f"{type(obj).__name__}.{name}")
    return built


def test_plan_paths_build_no_coordinate_views(monkeypatch, tmp_path):
    """Every plan path runs on node ids: no span, brick set, tree, loop
    or robot sweep it makes has built its coordinate tuples when the run
    returns."""
    recorded = []

    def record(module, name, pick):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            recorded.extend(pick(out))
            return out
        monkeypatch.setattr(module, name, wrapper)

    record(grid_map, "build_spanning_graph", lambda span: [span])
    record(grid_map, "connected_component", lambda span: [span])
    record(pipeline, "build_tree",
           lambda out: [x for x in out if x is not None])
    record(pipeline, "plan",
           lambda r: [x for x in (r.span, r.bricks, r.tree, r.loop,
                                  *r.plan.robots) if x is not None])

    grid = bench.generate_random_map((12, 10), 0.15, 4)
    free = [(x, y) for y in range(grid.height) for x in range(grid.width)
            if grid.is_free(x, y)]
    starts = [free[0], free[len(free) // 3], free[len(free) // 2], free[-1]]
    map_path = tmp_path / "map.grid"
    map_path.write_text("".join(
        "".join("1" if grid.is_occupied(x, y) else "0"
                for x in range(grid.width)) + "\n"
        for y in range(grid.height)))
    runs = [lambda: pipeline.plan(grid, 1),
            lambda: pipeline.plan(grid, 4),
            lambda: pipeline.plan(grid, 1, starts[:1]),
            lambda: pipeline.plan(grid, 4, starts),
            lambda: bench.run_scenario(
                bench.Scenario("s", grid, 2, tuple(starts[:2]))),
            lambda: cli.main(["plan", "--map", str(map_path), "--robots", "2",
                              "--out", str(tmp_path / "plan.txt")])]
    for run in runs:
        recorded.clear()
        run()
        assert recorded and not _built_views(recorded)


def test_comparing_and_hashing_plans_builds_no_coordinate_views():
    """Two plans of one input compare and hash equal, with every tree
    method: they are records all the way down. Equality, hashing and
    ``repr`` read the flags, the masks and the id runs, so they build no
    coordinate view."""
    grid = bench.generate_random_map((12, 10), 0.15, 4)
    for method in pipeline.TREE_METHODS:
        first = pipeline.plan(grid, 2, tree_method=method)
        second = pipeline.plan(grid, 2, tree_method=method)
        assert first.tree is not second.tree
        assert first == second and hash(first) == hash(second)
        assert hash(first.tree) == hash(second.tree)
        for result in (first, second):
            repr(result)
        assert not _built_views([
            record for result in (first, second)
            for record in (result.span, result.bricks, result.tree,
                           result.loop, *result.plan.robots)
            if record is not None]), method


@pytest.mark.parametrize("k", [1, 4])
def test_plan_and_record_text_build_no_loop_or_sweep_views(k):
    """The loop and each robot's sweep are id runs: planning and writing
    the record text build neither the loop's ``nodes`` nor any robot's
    ``sequence``."""
    grid = bench.generate_random_map((12, 10), 0.15, 4)
    result = pipeline.plan(grid, k)
    lines = cli.plan_record_text(result, grid.resolution_d).splitlines()
    assert len(lines) == k
    assert not _built_views([result.loop, *result.plan.robots])
    # the views are there to read, and count as built once read
    assert len(result.loop.nodes) == len(result.loop)
    assert _built_views([result.loop]) == ["CoverageLoop.nodes"]


@pytest.mark.parametrize("k", [1, 4, 16])
def test_plan_retains_at_most_60_bytes_per_loop_node(k):
    """What a plan leaves allocated, once its garbage is collected, stays
    within 60 bytes per loop node: the loop and the sweeps keep a few
    ranges per straight run, not a tuple per unit cell."""
    grid = bench.generate_random_map((40, 40), 0.1, 7)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = pipeline.plan(grid, k)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 60 * len(result.loop), kept / len(result.loop)


def test_single_robot_plan_keeps_no_twist_indices():
    """A robot keeps its twist count, not the twist indices, which
    ``run_twists`` reads off its runs: a one-robot plan of the 40x40 map
    keeps at most 29 bytes per loop node, where a tuple of twist indices
    kept on the robot added about 5."""
    grid = bench.generate_random_map((40, 40), 0.1, 7)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = pipeline.plan(grid, 1)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 29 * len(result.loop), kept / len(result.loop)
