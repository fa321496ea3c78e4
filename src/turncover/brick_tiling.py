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

from .grid_map import Coord, SpanningGraph, find

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


@dataclass(frozen=True)
class Segment:
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

    def horizontal_ids(self) -> list[int]:
        return [s.id for s in self.segments if s.orientation == HORIZONTAL]

    def vertical_ids(self) -> list[int]:
        return [s.id for s in self.segments if s.orientation == VERTICAL]


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
    ``(x, y)`` and ``(x, y + 1)``. Ids follow ``sorted_nodes()``, so those
    come in ascending id order and the edges come out sorted.
    """
    nodes = span.nodes
    segments: list[Segment] = []
    below: list[tuple[int, int, int]] = []  # (id, x, y) of horizontal ones
    right_of: dict[Coord, int] = {}  # cell -> id of the vertical one
    for x, y in span.sorted_nodes():
        if (x, y + 1) in nodes:
            below.append((len(segments), x, y))
            segments.append(
                Segment(len(segments), HORIZONTAL, ((x, y), (x, y + 1)))
            )
        if (x + 1, y) in nodes:
            right_of[x, y] = len(segments)
            segments.append(
                Segment(len(segments), VERTICAL, ((x, y), (x + 1, y)))
            )
    edges = []
    get = right_of.get
    for h, x, y in below:
        for cell in ((x - 1, y), (x - 1, y + 1), (x, y), (x, y + 1)):
            v = get(cell)
            if v is not None:
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
    h_ids = graph.horizontal_ids()
    adj: list[list[int]] = [[] for _ in range(n)]
    for h, v in graph.edges:
        adj[h].append(v)
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
    is a maximum independent set of size |segments| - |matching|."""
    match_h = {h: v for h, v in matching}
    match_v = {v: h for h, v in matching}
    adj_h: dict[int, list[int]] = {h: [] for h in graph.horizontal_ids()}
    for h, v in sorted(graph.edges):
        adj_h[h].append(v)
    reachable: set[int] = set()
    frontier = [h for h in graph.horizontal_ids() if h not in match_h]
    reachable.update(frontier)
    while frontier:
        nxt = []
        for h in frontier:
            for v in adj_h[h]:
                if v in reachable or match_h.get(h) == v:
                    continue
                reachable.add(v)
                back = match_v.get(v)
                if back is not None and back not in reachable:
                    reachable.add(back)
                    nxt.append(back)
        frontier = nxt
    h_ids = set(graph.horizontal_ids())
    v_ids = set(graph.vertical_ids())
    cover = (h_ids - reachable) | (v_ids & reachable)
    return frozenset((h_ids | v_ids) - cover)


def tiling_from_independent_set(
    span: SpanningGraph, graph: SegmentGraph, keep: frozenset[int]
) -> BrickSet:
    """Merge the two cells across every deleted border in ``keep``.

    Independence guarantees every merged block is a straight brick and
    that the brick count R equals free cells S minus deleted borders T;
    a failure of either means the input set was not independent.
    """
    parent: dict[Coord, Coord] = {c: c for c in span.nodes}
    for seg_id in keep:
        a, b = graph.segments[seg_id].cells
        ra, rb = find(parent, a), find(parent, b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[Coord, list[Coord]] = {}
    for cell in span.sorted_nodes():
        groups.setdefault(find(parent, cell), []).append(cell)
    bricks = []
    for cells in groups.values():
        xs = {c[0] for c in cells}
        ys = {c[1] for c in cells}
        if len(xs) == 1:
            cells.sort(key=lambda c: c[1])
            straight = all(
                cells[i + 1][1] == cells[i][1] + 1 for i in range(len(cells) - 1)
            )
        elif len(ys) == 1:
            cells.sort(key=lambda c: c[0])
            straight = all(
                cells[i + 1][0] == cells[i][0] + 1 for i in range(len(cells) - 1)
            )
        else:
            straight = False
        if not straight:
            raise ValueError(
                f"merged block {cells} is not a straight brick; the kept "
                "border set was not independent"
            )
        bricks.append(tuple(cells))
    s, t, r = len(span.nodes), len(keep), len(bricks)
    if r != s - t:
        raise ValueError(f"tiling identity violated: R={r} S={s} T={t}")
    bricks.sort(key=lambda b: (b[0][1], b[0][0]))
    return BrickSet(tuple(bricks))


def min_brick_tiling(span: SpanningGraph) -> BrickSet:
    """Provably minimum brick tiling (segments -> matching -> independent
    set -> merge)."""
    seg_graph = build_segment_graph(span)
    matching = maximum_matching(seg_graph)
    keep = max_independent_set(seg_graph, matching)
    return tiling_from_independent_set(span, seg_graph, keep)


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
