import hashlib

import pytest

from turncover import (balance, bench, brick_tiling, cli, coverage_path,
                       grid_map, pipeline, tree_builder)
from turncover.coverage_path import RobotParams
from turncover.grid_map import DisconnectedGraphError, GridMap


class TestGenerateRandomMap:
    def test_zero_ratio_all_free(self):
        grid = bench.generate_random_map((4, 4), 0.0, 1)
        assert grid.free_count() == 8 * 8

    def test_same_seed_identical(self):
        a = bench.generate_random_map((6, 6), 0.2, 42)
        b = bench.generate_random_map((6, 6), 0.2, 42)
        assert a == b

    def test_obstacle_count(self):
        grid = bench.generate_random_map((20, 20), 0.1, 3)
        # 40 occupied mega cells = 160 occupied unit cells
        assert len(grid.occupied_cells()) == 160

    def test_connected_free_region(self):
        for seed in range(5):
            grid = bench.generate_random_map((8, 8), 0.25, seed)
            span = pipeline.build_component(grid, None)  # raises if split
            assert len(span.nodes) == 48

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            bench.generate_random_map((4, 4), 1.0, 0)

    @pytest.mark.parametrize("dims, ratio, seed, digest", [
        # 1x7, 7x1 and 8x8 reject split draws before one is connected
        ((1, 7), 0.25, 3,
         "58902a0fdee41ca4dc3576c8922d14717d6a35470047c555a3935899a681d3dd"),
        ((7, 1), 0.25, 4,
         "9941b4d8b17a1d642bbd2b29ffa736acf025086fa6b5acd810c9f518edf2347c"),
        ((5, 5), 0.0, 0,
         "cd00e292c5970d3c5e2f0ffa5171e555bc46bfc4faddfb4a418b6840b86e79a3"),
        ((8, 8), 0.25, 1,
         "8d8c051fb2c5ba322f4b2e336db5232b4092acd7642e51cacb163a1b18526295"),
        ((9, 6), 0.15, 2,
         "2bbaedcd56c975528ec2ced56f45e2883af7c2fb81089188cb46fd15db1d6220"),
        ((6, 11), 0.2, 5,
         "ed7d54026c2802d7df700d3b7317eccb86e2a407966e39b4483a52a53e153115"),
        ((40, 40), 0.1, 7,
         "d33fac71975965e8fb7beed95e94039869876310ccb77fa73594c700a357998d"),
        ((120, 120), 0.1, 7,
         "2b8121b2713c62eeed949ab9e492799cde66f92a1cc5b3aa933527b3bd159d61"),
    ])
    def test_pinned_bytes(self, dims, ratio, seed, digest):
        # a seed names the same map in every version of the generator
        grid = bench.generate_random_map(dims, ratio, seed)
        assert (grid.width, grid.height) == (2 * dims[0], 2 * dims[1])
        assert hashlib.sha256(grid.cells).hexdigest() == digest

    def test_unattainable_connectivity(self):
        with pytest.raises(ValueError, match="no connected map"):
            bench.generate_random_map((10, 10), 0.95, 0)

    @pytest.mark.parametrize("dims", [(0, 5), (5, 0), (-1, 5)])
    def test_dimension_below_one(self, dims):
        with pytest.raises(ValueError, match="at least 1"):
            bench.generate_random_map(dims, 0.1, 0)


class TestCompareTrees:
    def test_strip_all_methods_four_turns(self):
        from turncover.grid_map import GridMap

        grid = GridMap(10, 2, tuple([False] * 20))
        rows = bench.compare_trees([("strip", grid)])
        assert rows[0]["tmstc"] == rows[0]["dfs"] == rows[0]["kruskal"] == 4

    def test_empty_set(self):
        assert bench.compare_trees([]) == []

    def test_direction_on_random_maps(self):
        grids = [
            (f"m{i}", bench.generate_random_map((10, 10), 0.1, 300 + i))
            for i in range(5)
        ]
        rows = bench.compare_trees(grids)
        assert sum(r["tmstc"] for r in rows) <= sum(r["kruskal"] for r in rows)


class TestRunScenario:
    def test_single_robot_max_equals_min(self):
        grid = bench.generate_random_map((4, 4), 0.0, 5)
        report = bench.run_scenario(bench.Scenario("s", grid, k=1))
        assert report.max_time == report.min_time

    def test_deterministic_apart_from_wall_time(self):
        grid = bench.generate_random_map((5, 5), 0.1, 8)
        s = bench.Scenario("s", grid, k=3, seed=8)
        a = bench.run_scenario(s)
        b = bench.run_scenario(s)
        assert a.record_line() == b.record_line()

    def test_internal_consistency(self):
        grid = bench.generate_random_map((6, 6), 0.1, 9)
        report = bench.run_scenario(bench.Scenario("s", grid, k=4, seed=9))
        assert report.max_time >= report.min_time
        assert report.turns_by_method["tmstc"] >= 4
        result = pipeline.plan(grid, k=4, seed=9)
        assert report.brick_count == result.brick_count
        assert report.loop_length == len(result.loop)
        assert report.turns_by_method["tmstc"] == result.tree_turns

    def test_one_tiling_per_scenario(self, monkeypatch):
        calls = []
        tiling = brick_tiling.min_brick_tiling
        monkeypatch.setattr(brick_tiling, "min_brick_tiling",
                            lambda span: calls.append(span) or tiling(span))
        grid = bench.generate_random_map((6, 6), 0.1, 9)
        for method in bench.TREE_METHODS:
            calls.clear()
            report = bench.run_scenario(
                bench.Scenario("s", grid, k=2, tree_method=method, seed=9))
            assert len(calls) == 1
            assert report.turns_by_method == pipeline.turns_by_method(grid, 9)

    def test_split_map_rejected_with_starts(self):
        # two free mega cells split by an occupied one
        rows = ["001100", "001100"]
        cells = tuple(ch == "1" for row in rows for ch in row)
        grid = GridMap(6, 2, cells)
        scenario = bench.Scenario("s", grid, k=1, starts=((0, 0),))
        with pytest.raises(DisconnectedGraphError):
            bench.run_scenario(scenario)

    def test_split_map_error_text_is_the_component_search_one(self):
        rows = ["001100", "001100"]
        grid = GridMap(6, 2, tuple(ch == "1" for row in rows for ch in row))
        with pytest.raises(DisconnectedGraphError) as expected:
            pipeline.build_component(grid, None)
        for starts in (((0, 0),), ((5, 1),)):
            with pytest.raises(DisconnectedGraphError) as raised:
                bench.run_scenario(bench.Scenario("s", grid, starts=starts))
            assert str(raised.value) == str(expected.value)

    def test_one_component_search_for_a_connected_pinned_map(
            self, monkeypatch):
        calls = []
        search = grid_map.connected_component
        monkeypatch.setattr(grid_map, "connected_component",
                            lambda span, seeds: calls.append(seeds)
                            or search(span, seeds))
        grid = bench.generate_random_map((6, 6), 0.1, 9)
        starts = pipeline.plan(grid, k=2).loop.nodes[:2]
        calls.clear()
        report = bench.run_scenario(
            bench.Scenario("s", grid, k=2, starts=starts))
        assert len(calls) == 1
        assert report.k == 2

    def test_bad_scenario(self):
        grid = bench.generate_random_map((3, 3), 0.0, 1)
        with pytest.raises(ValueError):
            bench.Scenario("s", grid, k=0)
        with pytest.raises(ValueError):
            bench.Scenario("s", grid, tree_method="aco")


class TestPlanInputs:
    def test_start_count_rejected_before_any_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(brick_tiling, "min_brick_tiling",
                            lambda span: calls.append(span))
        grid = bench.generate_random_map((6, 6), 0.1, 9)
        free = [(x, y) for y in range(grid.height) for x in range(grid.width)
                if grid.is_free(x, y)]
        for k, starts in ((2, free[:1]), (1, free[:3])):
            with pytest.raises(ValueError, match="starts given for"):
                pipeline.plan(grid, k=k, starts=starts)
        with pytest.raises(ValueError, match="exceed loop length"):
            pipeline.plan(grid, k=4 * len(free) + 1)
        assert calls == []

    def test_robot_count_rejected_before_any_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the map was discretized")

        grid = bench.generate_random_map((6, 6), 0.1, 9)
        monkeypatch.setattr(grid_map, "build_spanning_graph", refuse)
        monkeypatch.setattr(pipeline, "build_tree", refuse)
        for k in (0, -2):
            with pytest.raises(ValueError,
                               match="robot count must be at least 1"):
                pipeline.plan(grid, k=k)


class TestCoverAndAssign:
    """``plan`` is ``assign(cover(...))``, and ``bench`` builds each map's
    cover once for all its robot counts."""

    @pytest.mark.parametrize("method", bench.TREE_METHODS)
    def test_plan_is_assign_of_cover(self, method):
        grid = bench.generate_random_map((7, 6), 0.15, 4)
        span = pipeline.build_component(grid, None)
        shared = pipeline.cover(span, grid.resolution_d, None, method, 3)
        params = RobotParams(1.1, 0.7, 0.9)
        loop = shared.loop
        for k in (1, 3, 8):
            assert pipeline.assign(shared, k, None, params) == pipeline.plan(
                grid, k, None, params, method, 3)
            starts = [loop.nodes[i * 7 % len(loop)] for i in range(k)]
            pinned = pipeline.cover(span, grid.resolution_d, starts[0],
                                    method, 3)
            assert pipeline.assign(pinned, k, starts, params) == (
                pipeline.plan(grid, k, starts, params, method, 3))

    def test_assign_checks_its_robots(self):
        grid = bench.generate_random_map((3, 3), 0.0, 1)
        shared = pipeline.cover(pipeline.build_component(grid, None),
                                grid.resolution_d)
        with pytest.raises(ValueError, match="exceed loop length 36"):
            pipeline.assign(shared, 37)
        with pytest.raises(ValueError, match="1 starts given for 2 robots"):
            pipeline.assign(shared, 2, [(0, 0)])

    def test_bench_builds_one_cover_per_map(self, monkeypatch, tmp_path):
        calls = dict.fromkeys(["min_brick_tiling", "merge_bricks", "dfs_tree",
                               "kruskal_tree", "circumnavigate",
                               "balance_partition"], 0)
        for module in (brick_tiling, tree_builder, coverage_path, balance):
            for name in calls.keys() & vars(module).keys():
                def counted(*args, _name=name, _f=getattr(module, name)):
                    calls[_name] += 1
                    return _f(*args)
                monkeypatch.setattr(module, name, counted)
        assert cli.main(["bench", "--maps", "3", "--robots", "1,2,4",
                         "--out", str(tmp_path / "report.txt")]) == 0
        assert calls == {"min_brick_tiling": 3, "merge_bricks": 3,
                         "dfs_tree": 3, "kruskal_tree": 3,
                         "circumnavigate": 3, "balance_partition": 9}

    @pytest.mark.parametrize("method", bench.TREE_METHODS)
    def test_bench_records_are_run_scenario_records(self, method, tmp_path):
        records = tmp_path / "records.txt"
        assert cli.main(["bench", "--maps", "2", "--mega", "6,5", "--robots",
                         "1,3,5", "--method", method, "--seed", "11",
                         "--records", str(records),
                         "--out", str(tmp_path / "report.txt")]) == 0
        expected = [
            bench.run_scenario(bench.Scenario(
                f"random-{seed}", bench.generate_random_map((6, 5), 0.1, seed),
                k=k, tree_method=method, seed=11)).record_line()
            for seed in (11, 12) for k in (1, 3, 5)]
        assert records.read_text().splitlines() == expected


def test_tables_render():
    grid = bench.generate_random_map((4, 4), 0.1, 2)
    rows = bench.compare_trees([("m", grid)])
    table = bench.turns_table(rows)
    assert "total" in table and "m" in table
    report = bench.run_scenario(bench.Scenario("m", grid, k=2))
    text = bench.report_table([report])
    assert "m" in text and "max(s)" in text
