"""Experiment harness: seeded map generation, tree-method comparison and
multi-robot timing runs."""

from __future__ import annotations

import random
import time

from . import grid_map, pipeline
from .coverage_path import RobotParams
from .grid_map import Coord, GridMap, Record, SpanningGraph
from .pipeline import TREE_METHODS

MAX_ATTEMPTS = 1000  # maps generate_random_map draws before giving up
_NOT = bytes.maketrans(b"\0\1", b"\1\0")  # a 0/1 flag -> its negation


class Scenario(Record):
    name: str
    grid: GridMap
    k: int
    starts: tuple[Coord, ...] | None
    params: RobotParams
    tree_method: str
    seed: int

    def __init__(self, name: str, grid: GridMap, k: int = 1,
                 starts: tuple[Coord, ...] | None = None,
                 params: RobotParams = RobotParams(),  # immutable, so shared
                 tree_method: str = "tmstc", seed: int = 0) -> None:
        if k < 1:
            raise ValueError("robot count must be at least 1")
        if tree_method not in TREE_METHODS:
            raise ValueError(f"unknown tree method {tree_method!r}")
        self.__dict__.update(name=name, grid=grid, k=k, starts=starts,
                             params=params, tree_method=tree_method,
                             seed=seed)


class RunReport(Record):
    scenario: str
    tree_method: str
    k: int
    brick_count: int
    loop_length: int
    turns_by_method: dict[str, int]
    max_time: float
    min_time: float
    planning_seconds: float

    def record_line(self) -> str:
        """Machine-readable record; field order is fixed and documented in
        the README. Wall time is excluded so records stay reproducible."""
        turns = " ".join(
            f"{m}={self.turns_by_method[m]}" for m in TREE_METHODS
        )
        return (
            f"scenario={self.scenario} method={self.tree_method} k={self.k} "
            f"bricks={self.brick_count} loop={self.loop_length} {turns} "
            f"max={self.max_time:.3f} min={self.min_time:.3f}"
        )


def generate_random_map(
    mega_dims: tuple[int, int], obstacle_ratio: float, seed: int,
    resolution_d: float = 0.5,
) -> GridMap:
    """Seeded random map with obstacles placed per mega cell; draws up
    to ``MAX_ATTEMPTS`` maps until the free mega cells are connected.

    A draw samples the obstacles' mega-cell ids in row-major order,
    ``y * mw + x``. ``random.sample`` picks by index, so these are the
    cells that a row-major list of coordinates gives, and a seed keeps
    its map. The draw sets one byte per obstacle in a row-major mask.
    Its free cells, column by column, are a :class:`SpanningGraph`, and
    the map is connected when the component search seeded at the least
    node returns that graph whole; the seed spares a split draw the
    labelling that only words an error. The unit map doubles each mask
    byte across and each mask row down."""
    mw, mh = mega_dims
    if min(mw, mh) < 1:
        raise ValueError("mega dimensions must be at least 1")
    if not 0 <= obstacle_ratio < 1:
        raise ValueError("obstacle ratio must be in [0, 1)")
    rng = random.Random(seed)
    ids = range(mw * mh)
    n_obstacles = int(mw * mh * obstacle_ratio)
    for _ in range(MAX_ATTEMPTS):
        mask = bytearray(mw * mh)
        for i in rng.sample(ids, n_obstacles):
            mask[i] = 1
        free = b"".join([mask[x::mw] for x in range(mw)]).translate(_NOT)
        span = SpanningGraph(mw, mh, free)
        least = divmod(free.index(1), mh)
        if grid_map.connected_component(span, [least]) == span:
            row = 2 * mw
            wide = bytearray(row * mh)
            wide[0::2] = wide[1::2] = mask
            cells = b"".join([wide[y:y + row] * 2
                              for y in range(0, len(wide), row)])
            return GridMap(row, 2 * mh, cells, resolution_d)
    raise ValueError(
        f"no connected map found for {mw}x{mh} at ratio {obstacle_ratio} "
        f"after {MAX_ATTEMPTS} attempts"
    )


def compare_trees(grids: list[tuple[str, GridMap]],
                  kruskal_seed: int = 0) -> list[dict]:
    """Turn counts of each tree method on each map, one row per map;
    :func:`turns_table` adds the totals."""
    rows = []
    for name, grid in grids:
        turns = pipeline.turns_by_method(grid, kruskal_seed)
        rows.append({"map": name, **turns})
    return rows


def run_scenario(scenario: Scenario) -> RunReport:
    """Full pipeline run; wall time covers plan construction only."""
    t0 = time.perf_counter()
    result = pipeline.plan(
        scenario.grid,
        k=scenario.k,
        starts=list(scenario.starts) if scenario.starts else None,
        params=scenario.params,
        tree_method=scenario.tree_method,
        seed=scenario.seed,
    )
    planning = time.perf_counter() - t0
    if scenario.starts:
        # like turns_by_method, refuse a map that splits into components:
        # the plan's component is the whole graph unless the map splits,
        # and then the component search words the error
        full = grid_map.build_spanning_graph(scenario.grid)
        if full.free.count(1) != result.span.free.count(1):
            grid_map.connected_component(full, [])
    turns = pipeline.method_turns(result.span, scenario.seed,
                                  {scenario.tree_method: result.tree_turns})
    return run_report(scenario.name, scenario.tree_method, result, turns,
                      planning)


def run_report(name: str, tree_method: str, result: pipeline.PlanResult,
               turns: dict[str, int], seconds: float) -> RunReport:
    """The report of one plan, which took ``seconds`` to make."""
    plan = result.plan
    return RunReport(name, tree_method, len(plan.robots), result.brick_count,
                     len(result.loop), turns, plan.makespan, plan.min_time(),
                     seconds)


def turns_table(rows: list[dict]) -> str:
    """Human-readable turn-count comparison table."""
    header = f"{'map':<20} {'dfs':>8} {'kruskal':>8} {'tmstc':>8}"
    lines = [header, "-" * len(header)]
    totals = {"dfs": 0, "kruskal": 0, "tmstc": 0}
    for row in rows:
        lines.append(
            f"{row['map']:<20} {row['dfs']:>8} {row['kruskal']:>8} "
            f"{row['tmstc']:>8}"
        )
        for m in totals:
            totals[m] += row[m]
    lines.append(
        f"{'total':<20} {totals['dfs']:>8} {totals['kruskal']:>8} "
        f"{totals['tmstc']:>8}"
    )
    return "\n".join(lines) + "\n"


def report_table(reports: list[RunReport]) -> str:
    """Human-readable per-scenario timing table."""
    header = (
        f"{'scenario':<20} {'method':<8} {'k':>3} {'bricks':>7} {'loop':>6} "
        f"{'max(s)':>10} {'min(s)':>10} {'plan(s)':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.scenario:<20} {r.tree_method:<8} {r.k:>3} {r.brick_count:>7} "
            f"{r.loop_length:>6} {r.max_time:>10.3f} {r.min_time:>10.3f} "
            f"{r.planning_seconds:>8.3f}"
        )
    return "\n".join(lines) + "\n"
