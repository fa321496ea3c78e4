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


class Cover(Record):
    """What a plan of the component ``span`` shares with every other
    robot count: the tree and the loop around it."""

    span: SpanningGraph
    bricks: BrickSet | None
    tree: SpanningTree
    loop: CoverageLoop
    tree_turns: int


def cover(span: SpanningGraph, resolution_d: float,
          start: Coord | None = None, tree_method: str = "tmstc",
          seed: int = 0) -> Cover:
    """Tree of the component ``span`` and the loop around it, starting
    at the unit cell ``start`` or at the least node's top-left cell."""
    tree, bricks = build_tree(span, tree_method, seed)
    if start is None:
        mx, my = divmod(span.free.index(1), span.mega_height)
        start = (2 * mx, 2 * my)
    loop = coverage_path.circumnavigate(tree, start, resolution_d)
    return Cover(span, bricks, tree, loop, tree_builder.tree_turns(tree))


def assign(cover: Cover, k: int, starts: list[Coord] | None = None,
           params: RobotParams | None = None) -> PlanResult:
    """Balanced plan of ``k`` robots on the cover's loop: anchored at
    the loop nodes nearest the unit cells ``starts``, or spread evenly
    along the loop without them."""
    loop = cover.loop
    size = len(loop)
    if k > size:
        raise ValueError(f"{k} robots exceed loop length {size}")
    if starts and len(starts) != k:
        raise ValueError(f"{len(starts)} starts given for {k} robots")
    anchored = (balance.anchor_starts(loop, starts) if starts
                else [i * size // k for i in range(k)])
    robot_plan = balance.balance_partition(loop, anchored,
                                           params or RobotParams())
    return PlanResult(cover.span, cover.bricks, cover.tree, loop, robot_plan,
                      cover.tree_turns)


def plan(
    grid: GridMap,
    k: int = 1,
    starts: list[Coord] | None = None,
    params: RobotParams | None = None,
    tree_method: str = "tmstc",
    seed: int = 0,
) -> PlanResult:
    """Map -> component -> :func:`cover` -> :func:`assign`.

    ``starts`` are unit-cell coordinates; the loop starts at the first
    of them, and without them the robots are spread evenly along it.
    """
    if k < 1:
        raise ValueError("robot count must be at least 1")
    if starts:
        if len(starts) != k:
            raise ValueError(f"{len(starts)} starts given for {k} robots")
        for cell in starts:
            if not grid.is_free(*cell):
                raise ValueError(f"start {cell} is not a free map cell")
    span = build_component(grid, starts)
    size = 4 * span.free.count(1)  # the loop visits four unit cells per node
    if k > size:  # before any tree is built
        raise ValueError(f"{k} robots exceed loop length {size}")
    return assign(cover(span, grid.resolution_d, starts[0] if starts else None,
                        tree_method, seed), k, starts, params)


def turns_by_method(grid: GridMap, kruskal_seed: int = 0) -> dict[str, int]:
    """Turn counts of all three tree methods on one map."""
    return method_turns(build_component(grid, None), kruskal_seed)


def method_turns(span: SpanningGraph, seed: int = 0,
                 known: dict[str, int] | None = None) -> dict[str, int]:
    """Turn counts of every tree method on the component ``span``, in
    ``TREE_METHODS`` order: those ``known`` already, from trees built
    before, and a tree built for each other method."""
    turns = {}
    for method in TREE_METHODS:
        if known and method in known:
            turns[method] = known[method]
        else:
            tree, _ = build_tree(span, method, seed)
            turns[method] = tree_builder.tree_turns(tree)
    return turns
