"""Minimum brick tiling of the spanning graph.

A brick is a straight run of mega cells (width or height of one cell).
Tiling with the fewest bricks is solved exactly by deleting borders
between adjacent free cells: borders become vertices of a bipartite
conflict graph (horizontal vs. vertical, edges between perpendicular
borders sharing a lattice endpoint), a maximum independent set of that
graph is the largest deletable border set, and brick count equals
free cells minus deleted borders. The independent set comes from a
maximum matching (Pothen and Fan, 1990) and the Koenig vertex-cover
construction.

Every stage works on flat arrays indexed by segment id. A segment is the
border below or right of its first cell, so it is stored as that cell's
id ``x * H + y`` and one orientation byte. The segments are the edges of
the spanning graph, so those two arrays are ``SpanningGraph.borders``
itself, and a segment is nothing but its id. The sorted conflict pairs
``SegmentGraph.edges`` are derived on first access.

The matching starts from a greedy one and then runs phases. A phase is
one depth-first search along alternating paths from every free
horizontal segment, and the roots share one set of seen vertical
segments, so a phase passes over the graph once. A search takes the
first unseen neighbour of the horizontal segment it is in: a free one
ends the search, which flips the path behind it, and a matched one takes
the search on to its mate. The neighbours are scanned in ascending order
in one phase and in descending order in the next (the fairness of Duff,
Kaya and Ucar, 2011). The search stops after a phase that augments
nothing. That last phase searches every alternating path from the free
horizontal segments: it sees exactly the set the Koenig step reaches.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from itertools import compress, repeat
from operator import ne

from .grid_map import Coord, Record, SpanningGraph

_RIGHT, _DOWN = 1, 2  # a cell's deleted border, in tiling_from_independent_set
_SWAP = bytes.maketrans(b"\0\1", b"\1\0")  # orientation byte -> horizontal flag
_IS_ID = (-1).__lt__  # a segment id, not the -1 of no segment


class SegmentGraph(Record):
    """The conflict graph on flat arrays by segment id.

    Each segment ``s`` is the border right of (``vertical[s] == 1``) or
    below (``0``) the cell with id ``first_cell[s]``. Ids follow the cell
    ids, the horizontal segment of a cell before its vertical one.
    ``adjacency[h]`` lists the vertical neighbours of a horizontal
    segment in ascending id order; the vertical segments and the
    horizontal ones without a neighbour share one empty tuple.
    """

    first_cell: list[int]
    vertical: bytes
    horizontal_ids: list[int]
    adjacency: list[Sequence[int]]

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The ``(horizontal id, vertical id)`` pairs, sorted."""
        return tuple((h, v) for h in self.horizontal_ids
                     for v in self.adjacency[h])

    @property
    def segments(self) -> range:
        """The segment ids."""
        return range(len(self.first_cell))


class BrickSet(Record):
    """Disjoint straight bricks covering every node of the spanning graph.

    Each brick is a run of node ids ``x * height + y``; a tiling keeps
    it as a ``range`` and emits the bricks in row-major order of their
    top-left cells. ``bricks`` is the coordinate view, derived on first
    access."""

    runs: tuple[Sequence[int], ...]
    height: int

    @cached_property
    def bricks(self) -> tuple[tuple[Coord, ...], ...]:
        height = self.height
        return tuple([tuple(map(divmod, run, repeat(height)))
                      for run in self.runs])

    def __len__(self) -> int:
        return len(self.runs)


def build_segment_graph(span: SpanningGraph) -> SegmentGraph:
    """One segment per edge of ``span.borders``, whose arrays it keeps;
    edges join perpendicular segments sharing a geometric endpoint
    (parallel ones never connect).

    The horizontal border below ``(x, y)`` ends at the lattice points
    ``(x, y + 1)`` and ``(x + 1, y + 1)``, which it shares with the
    vertical borders right of ``(x - 1, y)``, ``(x - 1, y + 1)``,
    ``(x, y)`` and ``(x, y + 1)``: cells ``i - H``, ``i - H + 1``, ``i``
    and ``i + 1`` from the cell's id ``i``. The segment ids follow the
    cell ids, so those come in ascending order.
    """
    height = span.mega_height
    first_cell, vertical = span.borders
    horizontal = vertical.translate(_SWAP)
    size = len(first_cell)
    h_ids = list(compress(range(size), horizontal))
    right_of = [-1] * (len(span.free) + height + 1)  # cell id + H -> segment
    for v in compress(range(size), vertical):
        right_of[first_cell[v] + height] = v
    # per horizontal segment below cell i: the vertical segments right of
    # i - H, i - H + 1, i and i + 1
    cells = list(compress(first_cell, horizontal))
    around = zip(*[map(r.__getitem__, cells) for r in (
        right_of, right_of[1:], right_of[height:], right_of[height + 1:])])
    adjacency: list[Sequence[int]] = [()] * size
    for h, vs in zip(h_ids, around):
        # most interior segments have all four neighbours: keep that tuple
        adjacency[h] = vs if -1 not in vs else tuple(filter(_IS_ID, vs))
    return SegmentGraph(first_cell, vertical, h_ids, adjacency)


def maximum_matching(graph: SegmentGraph) -> frozenset[tuple[int, int]]:
    """Maximum-cardinality matching of the bipartite segment graph.

    Pothen-Fan on flat arrays indexed by segment id, seeded with a greedy
    matching (each horizontal segment takes its first free neighbour).
    Each phase runs one depth-first search with an explicit stack from
    every free horizontal segment; the searches of a phase share one
    ``seen`` flag per vertical segment, so none is entered twice. The
    search takes the first unseen neighbour from its paused scan: a free
    one ends the search and the path on the stack is flipped, a matched
    one pauses the scan and the search descends to its mate. A scan that
    runs out backs the search up one level, and the root's own gives the
    root up. The neighbours are scanned by ascending ids in one phase and
    by descending ids in the next. A phase that augments nothing proves
    the matching maximum; the search also stops when every horizontal
    segment is matched. The result is deterministic.
    """
    size = len(graph.first_cell)
    adj = graph.adjacency
    match_h = [-1] * size
    match_v = [-1] * size
    free = []
    for h in graph.horizontal_ids:
        for v in adj[h]:
            if match_v[v] < 0:
                match_h[h], match_v[v] = v, h
                break
        else:
            free.append(h)
    scan = iter  # the phase's neighbour order: ascending and descending in turn
    while free:
        seen = bytearray(size)
        augmented = False
        for root in free:
            # scans[j] is the paused neighbour scan of path[j]
            path, scans, it = [root], [], scan(adj[root])
            while True:
                for v in it:
                    if not seen[v]:
                        seen[v] = 1
                        break
                else:  # the scan ran out: back up one level
                    path.pop()
                    if not scans:  # the root is exhausted
                        break
                    it = scans.pop()
                    continue
                h = match_v[v]
                if h < 0:  # a free neighbour: flip the path
                    for u in reversed(path):
                        match_h[u], match_v[v], v = v, u, match_h[u]
                    augmented = True
                    break
                scans.append(it)
                path.append(h)
                it = scan(adj[h])
        if not augmented:
            break
        free = [h for h in free if match_h[h] < 0]
        scan = reversed if scan is iter else iter
    return frozenset((h, match_h[h]) for h in graph.horizontal_ids
                     if match_h[h] >= 0)


def max_independent_set(
    graph: SegmentGraph, matching: frozenset[tuple[int, int]]
) -> frozenset[int]:
    """Koenig construction: alternating-path reachability from unmatched
    horizontal vertices yields the minimum vertex cover; its complement
    is a maximum independent set of size |segments| - |matching|.

    The cover is the unreached horizontal and the reached vertical
    segments, so the set keeps the segments whose reached flag differs
    from their orientation byte. One BFS over flat lists by segment id.
    """
    size = len(graph.first_cell)
    adj = graph.adjacency
    match_v = [-1] * size
    matched = bytearray(size)
    for h, v in matching:
        match_v[v] = h
        matched[h] = 1
    frontier = [h for h in graph.horizontal_ids if not matched[h]]
    reached = bytearray(size)
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
    return frozenset(compress(range(size), map(ne, graph.vertical, reached)))


def tiling_from_independent_set(
    span: SpanningGraph, graph: SegmentGraph, keep: frozenset[int]
) -> BrickSet:
    """Merge the two cells across every deleted border in ``keep``.

    Independence guarantees every merged block is a straight brick and
    that the brick count R equals free cells S minus deleted borders T;
    a failure of either means the input set was not independent. Each
    brick is read as a run of deleted borders from its first cell and
    kept as the ``range`` of its node ids, and the first cells are met
    in row-major order, which is brick order.
    """
    height = span.mega_height
    free = span.free
    n = len(free)
    link = bytearray(n)  # per cell id: the border deleted right or below
    first_cell, vertical = graph.first_cell, graph.vertical
    for s in keep:
        link[first_cell[s]] |= _RIGHT if vertical[s] else _DOWN
    todo = bytearray(free)
    runs = []
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
            runs.append(range(i, j + 1, stride))
    s, t, r = span.free.count(1), len(keep), len(runs)
    if r != s - t:
        raise ValueError(f"tiling identity violated: R={r} S={s} T={t}")
    return BrickSet(tuple(runs), height)


def min_brick_tiling(span: SpanningGraph) -> BrickSet:
    """Provably minimum brick tiling (segments -> matching -> independent
    set -> merge)."""
    seg_graph = build_segment_graph(span)
    matching = maximum_matching(seg_graph)
    keep = max_independent_set(seg_graph, matching)
    return tiling_from_independent_set(span, seg_graph, keep)


def tiling_to_text(span: SpanningGraph, bricks: BrickSet) -> str:
    """Debug grid with one brick id per cell, '.' for the mega cells of
    no brick; ids follow brick order, which for a tiling is row-major
    order of brick top-left cells."""
    height = span.mega_height
    labels = ["."] * len(span.free)
    for i, run in enumerate(bricks.runs):
        for j in run:
            labels[j] = str(i)
    width = max(2, len(str(max(len(bricks) - 1, 0))))
    return "".join(" ".join(label.rjust(width) for label in labels[y::height])
                   + "\n" for y in range(height))
