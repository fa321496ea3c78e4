"""End-to-end planning pipeline shared by the CLI and the bench harness."""

from __future__ import annotations

from . import balance, brick_tiling, coverage_path, grid_map, tree_builder
from .balance import CoveragePlan
from .brick_tiling import BrickSet
from .coverage_path import CoverageLoop, RobotParams
from .grid_map import Coord, GridMap, Record, SpanningGraph
from .tree_builder import SpanningTree


class PlanResult(Record):
    span: SpanningGraph
    bricks: BrickSet | None
    tree: SpanningTree
    loop: CoverageLoop
    plan: CoveragePlan
    tree_turns: int

    @property
    def brick_count(self) -> int:
        return len(self.bricks) if self.bricks is not None else 0


def build_component(grid: GridMap, starts: list[Coord] | None) -> SpanningGraph:
    """Spanning graph restricted to the component holding the starts.

    A start whose 2x2 block is not fully free raises ``ValueError``.
    """
    span = grid_map.build_spanning_graph(grid)
    seeds = [(x // 2, y // 2) for x, y in starts] if starts else []
    for cell, seed in zip(starts or (), seeds):
        if not span.has_node(seed):
            raise ValueError(
                f"start {cell} lies in mega cell {seed}, whose 2x2 block "
                "is not fully free"
            )
    return grid_map.connected_component(span, seeds)


TREE_METHODS = ("tmstc", "dfs", "kruskal")  # the methods build_tree knows


def build_tree(span: SpanningGraph, method: str, seed: int = 0
               ) -> tuple[SpanningTree, BrickSet | None]:
    if method == "tmstc":
        bricks = brick_tiling.min_brick_tiling(span)
        return tree_builder.merge_bricks(bricks, span), bricks
    if method == "dfs":
        return tree_builder.dfs_tree(
            span, divmod(span.free.index(1), span.mega_height)), None
    if method == "kruskal":
        return tree_builder.kruskal_tree(span, seed), None
    raise ValueError(f"unknown tree method {method!r}")


def plan(
    grid: GridMap,
    k: int = 1,
    starts: list[Coord] | None = None,
    params: RobotParams | None = None,
    tree_method: str = "tmstc",
    seed: int = 0,
) -> PlanResult:
    """Map -> component -> tree -> loop -> balanced multi-robot plan.

    ``starts`` are unit-cell coordinates; without them the robots are
    spread evenly along the loop.
    """
    if k < 1:
        raise ValueError("robot count must be at least 1")
    params = params or RobotParams()
    if starts:
        if len(starts) != k:
            raise ValueError(f"{len(starts)} starts given for {k} robots")
        for cell in starts:
            if not grid.is_free(*cell):
                raise ValueError(f"start {cell} is not a free map cell")
    span = build_component(grid, starts)
    size = 4 * span.free.count(1)  # the loop visits four unit cells per node
    if k > size:
        raise ValueError(f"{k} robots exceed loop length {size}")
    tree, bricks = build_tree(span, tree_method, seed)
    if starts:
        start_cell = starts[0]
    else:
        mx, my = divmod(span.free.index(1), span.mega_height)  # the least node
        start_cell = (2 * mx, 2 * my)
    loop = coverage_path.circumnavigate(tree, start_cell, grid.resolution_d)
    if starts:
        anchored = balance.anchor_starts(loop, starts)
    else:
        anchored = [i * size // k for i in range(k)]
    robot_plan = balance.balance_partition(loop, anchored, params)
    return PlanResult(
        span=span,
        bricks=bricks,
        tree=tree,
        loop=loop,
        plan=robot_plan,
        tree_turns=tree_builder.tree_turns(tree),
    )


def turns_by_method(grid: GridMap, kruskal_seed: int = 0) -> dict[str, int]:
    """Turn counts of all three tree methods on one map."""
    span = build_component(grid, None)
    out = {}
    for method in TREE_METHODS:
        tree, _ = build_tree(span, method, kruskal_seed)
        out[method] = tree_builder.tree_turns(tree)
    return out
