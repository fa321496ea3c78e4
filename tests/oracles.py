"""Reference implementations the tests compare the planner against.

Slow and written for clarity on coordinate tuples: exhaustive searches
for small instances, the per-pair twist finder and loop turn count, the
turn-cost delta of one edge on neighbour sets, and the DFS and Kruskal
baseline trees as coordinate edge lists.
"""

from __future__ import annotations

import math
import random

from turncover.balance import RobotStart, arc_cost
from turncover.coverage_path import CoverageLoop, RobotParams, TwistSet
from turncover.grid_map import Coord, DisconnectedGraphError, SpanningGraph
from turncover.tree_builder import turn_count

from conftest import Edge, normalize_edge, span_edges


def _neighbors(span: SpanningGraph, node: Coord) -> tuple[Coord, ...]:
    """Adjacent nodes in the fixed scan order right, down, left, up."""
    x, y = node
    return tuple(c for c in ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1))
                 if c in span.nodes)


def _find(parent: dict[Coord, Coord], node: Coord) -> Coord:
    while parent[node] != node:
        parent[node] = parent[parent[node]]
        node = parent[node]
    return node


def brute_force_partition(
    loop: CoverageLoop, starts: list[RobotStart], params: RobotParams
) -> float:
    """Exhaustive optimum over all cut placements; oracle for small loops."""
    size = len(loop)
    ordered = sorted(starts, key=lambda s: s.anchored)
    anchors = [s.anchored for s in ordered]
    if len(starts) == 1:
        return arc_cost(loop, anchors[0], size, anchors[0], params)
    a_virtual = anchors + [anchors[0] + size]
    k = len(anchors)
    best = math.inf

    def recurse(i: int, cuts: list[int]) -> None:
        nonlocal best
        if i == k:
            worst = 0.0
            for j in range(k):
                start = (cuts[j - 1] + 1) % size
                length = (cuts[j] - cuts[j - 1] - 1) % size + 1
                worst = max(
                    worst, arc_cost(loop, start, length, anchors[j], params)
                )
            best = min(best, worst)
            return
        for c in range(a_virtual[i], a_virtual[i + 1]):
            recurse(i + 1, cuts + [c])

    recurse(0, [])
    return best


def brute_force_min_tiling(span: SpanningGraph) -> int:
    """Exact minimum brick count by exhaustive partition enumeration.

    Oracle for small instances only; refuses more than 16 free cells.
    """
    if len(span.nodes) > 16:
        raise ValueError(f"instance too large for oracle: {len(span.nodes)} cells")
    memo: dict[frozenset[Coord], int] = {frozenset(): 0}

    def solve(remaining: frozenset[Coord]) -> int:
        if remaining in memo:
            return memo[remaining]
        x0, y0 = min(remaining, key=lambda c: (c[1], c[0]))
        best = None
        # horizontal bricks growing right from the row-major minimum
        cells: list[Coord] = []
        length = 0
        while (x0 + length, y0) in remaining:
            cells.append((x0 + length, y0))
            length += 1
            sub = solve(remaining - frozenset(cells))
            if best is None or sub + 1 < best:
                best = sub + 1
        # vertical bricks growing down (length >= 2; length 1 covered above)
        cells = [(x0, y0)]
        length = 1
        while (x0, y0 + length) in remaining:
            cells.append((x0, y0 + length))
            length += 1
            sub = solve(remaining - frozenset(cells))
            if sub + 1 < best:
                best = sub + 1
        memo[remaining] = best
        return best

    return solve(frozenset(span.nodes))


def _direction(a: Coord, b: Coord) -> Coord:
    dx, dy = b[0] - a[0], b[1] - a[1]
    if abs(dx) + abs(dy) != 1:
        raise ValueError(f"nodes {a} and {b} are not 4-adjacent")
    return (dx, dy)


def extract_twists(sequence: list[Coord] | tuple[Coord, ...]) -> TwistSet:
    """Twist at every heading change, plus the path's first and last
    node; a reversal counts as two twist entries at the same node."""
    seq = list(sequence)
    if not seq:
        raise ValueError("empty node sequence")
    if len(seq) == 1:
        return TwistSet((0,), (seq[0],))
    headings = [_direction(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]
    indices = [0]
    for i in range(1, len(seq) - 1):
        din, dout = headings[i - 1], headings[i]
        if din != dout:
            indices.append(i)
            if dout == (-din[0], -din[1]):
                indices.append(i)
    indices.append(len(seq) - 1)
    points = tuple(seq[i] for i in indices)
    return TwistSet(tuple(indices), points)


def loop_turn_count(loop: CoverageLoop) -> int:
    """Heading changes around the full cyclic loop."""
    nodes = loop.nodes
    n = len(nodes)
    dirs = [_direction(nodes[i], nodes[(i + 1) % n]) for i in range(n)]
    return sum(1 for i in range(n) if dirs[i - 1] != dirs[i])


def edge_cost(edge: Edge, adjacency: dict[Coord, set[Coord]]) -> int:
    """Turn-count delta of adding ``edge`` to the current tree state."""
    a, b = edge
    cost = 0
    for node, other in ((a, b), (b, a)):
        before = turn_count(node, adjacency.get(node, ()))
        after = turn_count(node, set(adjacency.get(node, ())) | {other})
        cost += after - before
    return cost


def dfs_tree(span: SpanningGraph, root: Coord) -> frozenset[Edge]:
    """Edges of the depth-first tree with fixed neighbor order (right,
    down, left, up)."""
    if root not in span.nodes:
        raise ValueError(f"root {root} is not a spanning node")
    visited = {root}
    edges: list[Edge] = []
    stack: list[tuple[Coord, iter]] = [(root, iter(_neighbors(span, root)))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for nb in it:
            if nb not in visited:
                visited.add(nb)
                edges.append(normalize_edge(node, nb))
                stack.append((nb, iter(_neighbors(span, nb))))
                advanced = True
                break
        if not advanced:
            stack.pop()
    if len(visited) != len(span.nodes):
        raise DisconnectedGraphError("spanning graph is disconnected")
    return frozenset(edges)


def kruskal_tree(span: SpanningGraph, seed: int) -> frozenset[Edge]:
    """Edges of the spanning tree from union-find over the sorted edges
    in seeded-random order."""
    edges = span_edges(span)
    random.Random(seed).shuffle(edges)
    parent: dict[Coord, Coord] = {n: n for n in span.nodes}
    chosen = []
    for a, b in edges:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
            chosen.append((a, b))
    if len(chosen) != len(span.nodes) - 1:
        raise DisconnectedGraphError("spanning graph is disconnected")
    return frozenset(chosen)
