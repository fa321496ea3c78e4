"""Reference implementations the tests compare the planner against.

Slow and written for clarity on coordinate tuples: the per-block
discretization and the cell-by-cell flood fill, exhaustive searches
for small instances, a bottleneck DP over cut positions for the min-max
partition and for each first cut, the feasibility sweep priced one
``LoopCostModel.arc_cost`` call at a time, the segment graph built from
coordinate ``Segment`` tuples and endpoint buckets, Hopcroft-Karp
matching, the quadrant-rule walk one unit cell at a time, the loop's
turns from coordinate steps, each sweep sliced from the loop's nodes,
the per-pair twist finder, path timing on twist coordinates, the loop
turn count, the turn-cost delta of one edge on neighbour sets, and the
DFS and Kruskal baseline trees as coordinate edge lists.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable
from itertools import compress, groupby
from operator import itemgetter, ne, sub
from typing import NamedTuple

from turncover.balance import LoopCostModel, arc_cost
from turncover.brick_tiling import SegmentGraph
from turncover.coverage_path import (CoverageLoop, RobotParams, leg_time,
                                    turn_term)
from turncover.grid_map import (Coord, DisconnectedGraphError, GridMap,
                                SpanningGraph)
from turncover.tree_builder import (DOWN, LEFT, RIGHT, UP, SpanningTree,
                                    turn_count)

from conftest import Edge, normalize_edge, runs_of, span_edges, span_of


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


def build_spanning_graph(grid: GridMap) -> SpanningGraph:
    """The spanning graph block by block: a mega cell is a node when its
    four unit cells are free; odd dimensions round up."""
    width, cells = grid.width, grid.cells
    nodes = []
    for my in range(grid.height // 2):
        top = 2 * my * width
        bottom = top + width
        for mx in range(width // 2):
            x = 2 * mx
            if not (cells[top + x] or cells[top + x + 1]
                    or cells[bottom + x] or cells[bottom + x + 1]):
                nodes.append((mx, my))
    if not nodes:
        raise ValueError("map has no fully free mega cell")
    return span_of((width + 1) // 2, (grid.height + 1) // 2, nodes)


def flood_fill(todo: bytearray, height: int, root: int) -> list[int]:
    """Ids 4-connected to ``root`` through the ids flagged in ``todo``,
    one id at a time; clears their flags as it goes."""
    n = len(todo)
    todo[root] = 0
    reached = [root]
    for i in reached:  # grows while it is read
        y = i % height
        # a neighbour off the grid reads the root, whose flag is clear
        for j in (i + height if i + height < n else root,
                  i + 1 if y + 1 < height else root,
                  i - height if i >= height else root,
                  i - 1 if y else root):
            if todo[j]:
                todo[j] = 0
                reached.append(j)
    return reached


def brute_force_partition(
    loop: CoverageLoop, starts: list[int], params: RobotParams
) -> float:
    """Exhaustive optimum over all cut placements; oracle for small loops."""
    size = len(loop)
    anchors = sorted(starts)
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


def shortest_gap_first(anchors: list[int], size: int) -> list[int]:
    """Ascending loop indices rotated to start at the shortest gap, as
    virtual indices ascending within one period: the order in which
    ``balance_partition`` probes them."""
    k = len(anchors)
    gaps = [(anchors[(i + 1) % k] - anchors[i]) % size for i in range(k)]
    r = gaps.index(min(gaps))
    return anchors[r:] + [a + size for a in anchors[:r]]


def greedy_cuts(
    model: LoopCostModel, anchors: list[int], budget: float,
    firsts: Iterable[int],
    cost: Callable[[int, int, int], float] | None = None,
) -> tuple[list[int] | None, float, list[int]]:
    """``balance._greedy_cuts`` with every arc priced by one call of
    ``cost(arc_start, arc_length, anchor)``, ``model.arc_cost`` unless
    given: same probes, same decisions."""
    k = len(anchors)
    size = model.size
    cost = cost or model.arc_cost
    over = math.inf
    found = None
    survivors = []
    reach = [a - 1 for a in anchors]
    limit = anchors[1:] + [anchors[0] + size]
    fits = k  # the chain through reach[i] closed within budget for i >= fits
    for c0 in firsts:
        prev, broke = c0, None
        for i in range(1, k):
            start, anchor = prev + 1, anchors[i]
            lo, hi = reach[i], limit[i] - 1
            if lo < anchor:
                t = cost(start, anchor - start + 1, anchor)
                if t > budget:
                    over = min(over, t)
                    broke = i
                    break
                lo = anchor
            step = 1
            while lo < hi:
                probe = min(lo + step, hi)
                t = cost(start, probe - start + 1, anchor)
                if t > budget:
                    over = min(over, t)
                    hi = probe - 1
                    break
                lo = probe
                step *= 2
            while lo < hi:
                mid = (lo + hi + 1) // 2
                t = cost(start, mid - start + 1, anchor)
                if t > budget:
                    over = min(over, t)
                    hi = mid - 1
                else:
                    lo = mid
            if lo == reach[i]:
                if i < fits:
                    broke = i
                else:
                    prev = reach[-1]
                break
            reach[i] = prev = lo
        if broke is not None:
            fits = max(fits, broke)
            continue
        t = cost(prev + 1, c0 + size - prev, anchors[0] + size)
        if t <= budget:
            found = found or [c0] + reach[1:]
            survivors.append(c0)
            fits = 1
        else:
            over = min(over, t)
            fits = k
    return found, over, survivors


def bottleneck_partition(model: LoopCostModel, anchors: list[int]) -> float:
    """Least makespan over every cut placement; ``anchors`` are distinct
    loop indices."""
    if len(anchors) == 1:
        return model.arc_cost(anchors[0], model.size, anchors[0])
    return min(first_cut_makespans(model, anchors).values())


def first_cut_makespans(model: LoopCostModel,
                        anchors: list[int]) -> dict[int, float]:
    """Least makespan for each position of the first cut, by dynamic
    programming.

    ``anchors`` are at least two distinct loop indices, taken in the
    order of :func:`shortest_gap_first`; the keys are the cuts of its
    first gap, as virtual indices. Cut ``i`` ends the arc that holds the
    ``i``-th anchor. For each position ``c0`` of the first cut,
    ``best[c]`` is the least makespan of arcs 1..i with cut ``i`` at
    ``c``: ``min over c' of max(best_prev[c'], cost(c' + 1 .. c))``; the
    closing arc runs from cut ``k - 1`` back around to ``c0``. No budget
    and no early exit: every cut pair is priced, the arcs that do not
    touch the first cut once for all ``c0``. The first cut ranges over the
    shortest gap only to keep the table small.
    """
    size, k = model.size, len(anchors)
    anchors = shortest_gap_first(sorted(anchors), size)
    bounds = anchors + [anchors[0] + size]
    gaps = [range(bounds[i], bounds[i + 1]) for i in range(k)]

    def cost(prev: int, cut: int, i: int) -> float:
        return model.arc_cost(prev + 1, cut - prev, bounds[i])

    middle = {(i, p, c): cost(p, c, i)
              for i in range(2, k) for p in gaps[i - 1] for c in gaps[i]}
    makespans = {}
    for c0 in gaps[0]:
        best = {c: cost(c0, c, 1) for c in gaps[1]}
        for i in range(2, k):
            best = {c: min(max(best[p], middle[i, p, c]) for p in gaps[i - 1])
                    for c in gaps[i]}
        makespans[c0] = min(max(best[c], cost(c, c0 + size, k))
                            for c in gaps[k - 1])
    return makespans


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


HORIZONTAL = "horizontal"
VERTICAL = "vertical"


class Segment(NamedTuple):
    """Border between two adjacent free mega cells.

    A vertical segment separates horizontally adjacent cells and vice
    versa. ``cells`` is ordered (left-right or top-bottom).
    """

    id: int
    orientation: str
    cells: tuple[Coord, Coord]

    def endpoints(self) -> tuple[Coord, Coord]:
        """Lattice endpoints of the border line (mega-cell corner grid)."""
        (x, y), _ = self.cells
        if self.orientation == VERTICAL:
            return ((x + 1, y), (x + 1, y + 1))
        return ((x, y + 1), (x + 1, y + 1))


class ReferenceSegmentGraph:
    """The conflict graph built from coordinates: one ``Segment`` per pair
    of adjacent nodes in sorted node order (the border below a node
    before the one right of it), edges from buckets of segments by
    lattice endpoint, then the id lists and adjacency derived from
    those."""

    def __init__(self, span: SpanningGraph):
        nodes = span.nodes
        segments = []
        for x, y in sorted(nodes):
            if (x, y + 1) in nodes:
                segments.append(
                    Segment(len(segments), HORIZONTAL, ((x, y), (x, y + 1))))
            if (x + 1, y) in nodes:
                segments.append(
                    Segment(len(segments), VERTICAL, ((x, y), (x + 1, y))))
        by_point: dict[Coord, dict[str, list[int]]] = {}
        for seg in segments:
            for pt in seg.endpoints():
                by_point.setdefault(pt, {HORIZONTAL: [], VERTICAL: []})[
                    seg.orientation].append(seg.id)
        self.segments = tuple(segments)
        self.edges = tuple(sorted(
            {(h, v) for buckets in by_point.values()
             for h in buckets[HORIZONTAL] for v in buckets[VERTICAL]}))
        self.horizontal_ids = [s.id for s in segments
                               if s.orientation == HORIZONTAL]
        self.vertical_ids = [s.id for s in segments
                             if s.orientation == VERTICAL]
        self.adjacency: list = [()] * len(segments)
        for h, group in groupby(self.edges, itemgetter(0)):
            self.adjacency[h] = tuple(v for _, v in group)


def hopcroft_karp(graph: SegmentGraph) -> frozenset[tuple[int, int]]:
    """Maximum matching of the segment graph by Hopcroft-Karp.

    Seeded with the same greedy matching as ``maximum_matching``. Each
    phase layers the horizontal segments by a BFS along alternating paths
    from the free ones, then runs one DFS per free root with an explicit
    stack and per-vertex edge pointers; it climbs one layer per step,
    augments at the first free vertical segment, and drops a segment
    whose edges are exhausted from its layer. The BFS layers everything
    reachable instead of stopping at the shortest augmenting path, so a
    phase also takes longer vertex-disjoint paths.
    """
    n = len(graph.segments)
    h_ids = graph.horizontal_ids
    adj = graph.adjacency
    match_h = [-1] * n
    match_v = [-1] * n
    for h in h_ids:
        for v in adj[h]:
            if match_v[v] < 0:
                match_h[h], match_v[v] = v, h
                break
    while True:
        free = [h for h in h_ids if match_h[h] < 0]
        layer = [-1] * n
        for h in free:
            layer[h] = 0
        augmentable = False
        frontier = free
        while frontier:
            nxt = []
            for h in frontier:
                d = layer[h] + 1
                for v in adj[h]:
                    w = match_v[v]
                    if w < 0:
                        augmentable = True
                    elif layer[w] < 0:
                        layer[w] = d
                        nxt.append(w)
            frontier = nxt
        if not augmentable:
            break
        ptr = [0] * n
        for root in free:
            stack = [root]
            while stack:
                h = stack[-1]
                edges, i, d = adj[h], ptr[h], layer[h] + 1
                while i < len(edges):
                    w = match_v[edges[i]]
                    if w < 0 or layer[w] == d:
                        break
                    i += 1
                ptr[h] = i
                if i == len(edges):  # dead end
                    layer[h] = -1
                    stack.pop()
                    if stack:
                        ptr[stack[-1]] += 1
                elif w >= 0:
                    stack.append(w)
                else:  # free vertical segment: flip the path on the stack
                    for u in stack:
                        v = adj[u][ptr[u]]
                        match_h[u], match_v[v] = v, u
                    break
    return frozenset((h, match_h[h]) for h in h_ids if match_h[h] >= 0)


def quadrant_walk(tree: SpanningTree, start: Coord,
                  resolution_d: float = 0.5) -> CoverageLoop:
    """The circumnavigation loop walked one unit cell at a time.

    From the top-left quadrant of a mega cell the walk goes up along an
    up edge, else right; from the top-right, right along a right edge,
    else down; from the bottom-right, down along a down edge, else left;
    from the bottom-left, left along a left edge, else up. It must first
    return to ``start`` after exactly 4N steps; a step off the grid of
    the tree's masks also fails it.
    """
    height, masks = tree.span.mega_height, tree.flat_masks
    rows, cols = 2 * height, 2 * (len(masks) // height)
    sx, sy = start
    if not (0 <= sx < cols and 0 <= sy < rows
            and (sx >> 1, sy >> 1) in tree.span.nodes):
        raise ValueError(f"start {start} lies outside the tree's mega cells")
    n = 4 * len(tree.span.nodes)
    nodes = [start]
    x, y = start
    for _ in range(n):
        mask = masks[(x >> 1) * height + (y >> 1)]
        if y & 1:
            if x & 1:  # bottom-right
                if mask & DOWN:
                    y += 1
                else:
                    x -= 1
            elif mask & LEFT:  # bottom-left
                x -= 1
            else:
                y -= 1
        elif x & 1:  # top-right
            if mask & RIGHT:
                x += 1
            else:
                y += 1
        elif mask & UP:  # top-left
            y -= 1
        else:
            x += 1
        if not (0 <= x < cols and 0 <= y < rows):
            raise AssertionError(f"the walk left the grid at {(x, y)}")
        if x == sx and y == sy:
            break
        nodes.append((x, y))
    if len(nodes) != n:
        raise AssertionError(
            f"circumnavigation did not close after exactly {n} steps"
        )
    return CoverageLoop(runs_of(nodes, rows), rows, resolution_d)


def loop_turns(nodes: tuple[Coord, ...]) -> tuple[int, ...]:
    """Ascending indices at which a cyclic node sequence changes heading:
    index ``i`` when the step into node ``i`` differs from the step out
    of it. Headings are the steps of the code ``2x + y``: loop neighbours
    are 4-adjacent, so the steps +-1 and +-2 tell the four headings
    apart."""
    code = [2 * x + y for x, y in nodes]
    steps = list(map(sub, code[1:] + code[:1], code))
    return tuple(compress(range(len(steps)),
                          map(ne, steps[-1:] + steps[:-1], steps)))


def arc_sequence(loop: CoverageLoop, arc_start: int, arc_length: int,
                 anchor: int, near_first: bool) -> list[Coord]:
    """Node sequence of one sweep strategy, sliced from the loop's
    nodes: back from the anchor to the arc's first node and then forward
    to its last (``near_first``), or forward to the last node and then
    back to the first."""
    size = len(loop)
    if arc_length < 1 or arc_length > size:
        raise ValueError(f"bad arc length {arc_length}")
    first = arc_start % size
    p = (anchor - first) % size
    if not (0 <= anchor < size and p < arc_length):
        raise ValueError(f"anchor {anchor} outside arc")
    end = first + arc_length
    nodes = list(loop.nodes[first:end])
    if end > size:
        nodes += loop.nodes[:end - size]
    if near_first:
        return nodes[p::-1] + nodes[1:]
    return nodes[p:] + nodes[-2::-1]


def _direction(a: Coord, b: Coord) -> Coord:
    dx, dy = b[0] - a[0], b[1] - a[1]
    if abs(dx) + abs(dy) != 1:
        raise ValueError(f"nodes {a} and {b} are not 4-adjacent")
    return (dx, dy)


def extract_twists(sequence: list[Coord] | tuple[Coord, ...]
                   ) -> tuple[int, ...]:
    """Twist at every heading change, plus the path's first and last
    node; a reversal counts as two twist entries at the same node."""
    seq = list(sequence)
    if not seq:
        raise ValueError("empty node sequence")
    if len(seq) == 1:
        return (0,)
    headings = [_direction(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]
    indices = [0]
    for i in range(1, len(seq) - 1):
        din, dout = headings[i - 1], headings[i]
        if din != dout:
            indices.append(i)
            if dout == (-din[0], -din[1]):
                indices.append(i)
    indices.append(len(seq) - 1)
    return tuple(indices)


def twist_points(sequence: list[Coord] | tuple[Coord, ...]) -> list[Coord]:
    """The unit cells at the twists of ``sequence``, in twist order."""
    return [sequence[i] for i in extract_twists(sequence)]


def twist_legs(sequence: list[Coord] | tuple[Coord, ...]) -> tuple[int, ...]:
    """Unit-cell length of each leg between consecutive twists, from
    their coordinates: ``|dx| + |dy|``."""
    points = twist_points(sequence)
    return tuple(abs(x2 - x1) + abs(y2 - y1)
                 for (x1, y1), (x2, y2) in zip(points, points[1:]))


def coordinate_path_time(sequence: list[Coord] | tuple[Coord, ...],
                         params: RobotParams,
                         resolution_d: float = 0.5) -> float:
    """Coverage time of ``sequence`` priced on the coordinates of its
    twist points: each leg ``math.hypot`` of their difference times
    ``resolution_d`` meters, timed by ``leg_time``, plus the rotation
    term, summed with ``math.fsum``."""
    points = twist_points(sequence)
    legs = [leg_time(math.hypot(x2 - x1, y2 - y1) * resolution_d, params)
            for (x1, y1), (x2, y2) in zip(points, points[1:])]
    return math.fsum(legs + [turn_term(len(points), params)])


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
