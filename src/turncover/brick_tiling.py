"""Minimum brick tiling of the spanning graph.

A brick is a straight run of mega cells (width or height of one cell).
Tiling with the fewest bricks is solved exactly by deleting borders
between adjacent free cells: borders become vertices of a bipartite
conflict graph (horizontal vs. vertical, edges between perpendicular
borders sharing a lattice endpoint), a maximum independent set of that
graph is the largest deletable border set, and brick count equals
free cells minus deleted borders. The independent set comes from a
maximum matching (Hopcroft-Karp) and the Koenig vertex-cover
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from typing import NamedTuple

from .grid_map import Coord, SpanningGraph

HORIZONTAL = "horizontal"
VERTICAL = "vertical"
_RIGHT, _DOWN = 1, 2  # a cell's deleted border, in tiling_from_independent_set


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


@dataclass(frozen=True)
class SegmentGraph:
    segments: tuple[Segment, ...]
    edges: tuple[tuple[int, int], ...]  # (horizontal id, vertical id)

    @cached_property
    def horizontal_ids(self) -> list[int]:
        return [s.id for s in self.segments if s.orientation == HORIZONTAL]

    @cached_property
    def vertical_ids(self) -> list[int]:
        return [s.id for s in self.segments if s.orientation == VERTICAL]

    @cached_property
    def adjacency(self) -> list[list[int]]:
        """Vertical neighbours of every segment, by id, ascending (``edges``
        is sorted); empty for the vertical segments."""
        adj: list[list[int]] = [[] for _ in self.segments]
        for h, v in self.edges:
            adj[h].append(v)
        return adj


@dataclass(frozen=True)
class BrickSet:
    """Disjoint straight bricks covering every node of the spanning graph."""

    bricks: tuple[tuple[Coord, ...], ...]

    def __len__(self) -> int:
        return len(self.bricks)


def build_segment_graph(span: SpanningGraph) -> SegmentGraph:
    """One segment per adjacent free pair; edges join perpendicular
    segments sharing a geometric endpoint (parallel ones never connect).

    The horizontal border below ``(x, y)`` ends at the lattice points
    ``(x, y + 1)`` and ``(x + 1, y + 1)``, which it shares with the
    vertical borders right of ``(x - 1, y)``, ``(x - 1, y + 1)``,
    ``(x, y)`` and ``(x, y + 1)``: ids ``i - H``, ``i - H + 1``, ``i``
    and ``i + 1`` from the cell's id ``i``. Segment ids follow the node
    ids, so those come in ascending order and the edges come out sorted.
    """
    height = span.mega_height
    free = span.free
    n = len(free)
    segments: list[Segment] = []
    below: list[tuple[int, int]] = []  # (segment id, cell id) of horizontal ones
    right_of = [-1] * (n + height)  # cell id + H -> id of the vertical one
    for i in span.ids:
        x, y = divmod(i, height)
        if y + 1 < height and free[i + 1]:
            below.append((len(segments), i))
            segments.append(
                Segment(len(segments), HORIZONTAL, ((x, y), (x, y + 1)))
            )
        if i + height < n and free[i + height]:
            right_of[i + height] = len(segments)
            segments.append(
                Segment(len(segments), VERTICAL, ((x, y), (x + 1, y)))
            )
    edges = []
    for h, i in below:
        for v in (right_of[i], right_of[i + 1],
                  right_of[i + height], right_of[i + height + 1]):
            if v >= 0:
                edges.append((h, v))
    return SegmentGraph(tuple(segments), tuple(edges))


def maximum_matching(graph: SegmentGraph) -> frozenset[tuple[int, int]]:
    """Maximum-cardinality matching of the bipartite segment graph.

    Hopcroft-Karp on flat arrays indexed by segment id, seeded with a
    greedy matching (each horizontal segment takes its first free
    neighbour). Each phase layers the horizontal segments by a BFS along
    alternating paths from the free ones, then runs one DFS per free root
    with an explicit stack and per-vertex edge pointers; it climbs one
    layer per step, augments at the first free vertical segment, and
    drops a segment whose edges are exhausted from its layer. The BFS
    layers everything reachable instead of stopping at the shortest
    augmenting path, so a phase also takes longer vertex-disjoint paths:
    on 120x120-mega grids that means about 10 phases instead of 53.
    Neighbours are scanned in ascending id order, so the result is
    deterministic.
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


def max_independent_set(
    graph: SegmentGraph, matching: frozenset[tuple[int, int]]
) -> frozenset[int]:
    """Koenig construction: alternating-path reachability from unmatched
    horizontal vertices yields the minimum vertex cover; its complement
    is a maximum independent set of size |segments| - |matching|.

    The cover is the unreached horizontal and the reached vertical
    segments, so the set keeps the reached horizontal and the unreached
    vertical ones. One BFS over flat lists by segment id.
    """
    n = len(graph.segments)
    adj = graph.adjacency
    match_h = [-1] * n
    match_v = [-1] * n
    for h, v in matching:
        match_h[h], match_v[v] = v, h
    reached = bytearray(n)
    frontier = [h for h in graph.horizontal_ids if match_h[h] < 0]
    for h in frontier:
        reached[h] = 1
    for h in frontier:  # grows while it is read
        for v in adj[h]:
            if not reached[v]:
                reached[v] = 1
                back = match_v[v]
                if back >= 0 and not reached[back]:
                    reached[back] = 1
                    frontier.append(back)
    return frozenset(
        s.id for s in graph.segments
        if (s.orientation == HORIZONTAL) == bool(reached[s.id])
    )


def tiling_from_independent_set(
    span: SpanningGraph, graph: SegmentGraph, keep: frozenset[int]
) -> BrickSet:
    """Merge the two cells across every deleted border in ``keep``.

    Independence guarantees every merged block is a straight brick and
    that the brick count R equals free cells S minus deleted borders T;
    a failure of either means the input set was not independent. Each
    brick is read as a run of deleted borders from its first cell, and
    the first cells are met in row-major order, which is brick order.
    """
    height = span.mega_height
    free = span.free
    n = len(free)
    link = bytearray(n)  # per cell id: the border deleted right or below
    for seg_id in keep:
        seg = graph.segments[seg_id]
        x, y = seg.cells[0]
        link[x * height + y] |= _RIGHT if seg.orientation == VERTICAL else _DOWN
    todo = bytearray(free)
    bricks = []
    for y in range(height):
        for i in compress(range(y, n, height), free[y::height]):
            if not todo[i]:
                continue
            todo[i] = 0
            kind = link[i]
            stride = height if kind == _RIGHT else 1
            j = i
            while link[j]:
                if link[j] != kind or kind == _RIGHT | _DOWN or not todo[j + stride]:
                    raise ValueError(
                        f"merged block through {divmod(j, height)} is not a "
                        "straight brick; the kept border set was not "
                        "independent"
                    )
                j += stride
                todo[j] = 0
            x, size = i // height, (j - i) // stride + 1
            if kind == _DOWN:
                bricks.append(tuple(zip(repeat(x, size), range(y, y + size))))
            else:
                bricks.append(tuple(zip(range(x, x + size), repeat(y, size))))
    s, t, r = len(span.nodes), len(keep), len(bricks)
    if r != s - t:
        raise ValueError(f"tiling identity violated: R={r} S={s} T={t}")
    return BrickSet(tuple(bricks))


def min_brick_tiling(span: SpanningGraph) -> BrickSet:
    """Provably minimum brick tiling (segments -> matching -> independent
    set -> merge)."""
    seg_graph = build_segment_graph(span)
    matching = maximum_matching(seg_graph)
    keep = max_independent_set(seg_graph, matching)
    return tiling_from_independent_set(span, seg_graph, keep)


def tiling_to_text(span: SpanningGraph, bricks: BrickSet) -> str:
    """Debug grid with one brick id per cell; ids follow row-major order
    of brick top-left cells, '.' marks occupied mega cells."""
    ordered = sorted(
        bricks.bricks, key=lambda b: (min(c[1] for c in b), min(c[0] for c in b))
    )
    ids: dict[Coord, int] = {}
    for i, brick in enumerate(ordered):
        for cell in brick:
            ids[cell] = i
    width = max(2, len(str(max(len(ordered) - 1, 0))))
    rows = []
    for y in range(span.mega_height):
        row = []
        for x in range(span.mega_width):
            row.append(str(ids[(x, y)]).rjust(width) if (x, y) in ids
                       else ".".rjust(width))
        rows.append(" ".join(row))
    return "\n".join(rows) + "\n"
