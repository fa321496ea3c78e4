"""Spanning tree construction over the mega-cell graph.

The greedy merger keeps every intra-brick edge and connects bricks with
the cheapest available edges, where an edge's cost is the change in the
per-node turn function it causes. DFS and seeded-Kruskal trees are
provided as comparison baselines.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Iterable
from functools import cached_property
from itertools import compress

from .brick_tiling import BrickSet
from .grid_map import (
    Coord,
    DisconnectedGraphError,
    Edge,
    Record,
    SpanningGraph,
    find,
)


# Neighbour-mask bits of a mega cell: one per tree edge leaving it.
RIGHT, DOWN, LEFT, UP = 1, 2, 4, 8


class SpanningTree(Record):
    """Undirected tree over the nodes of the spanning graph ``span``.

    ``flat_masks`` holds, by node id ``x * span.mega_height + y`` (0 at
    ids off the tree), the bits (``RIGHT``, ``DOWN``, ``LEFT``, ``UP``)
    of the tree edges that leave each node; the walk and the turn count
    read it, and ``edges`` is derived from it on first use. The three
    builders below fill a ``bytearray``, which the record keeps as
    ``bytes``, and check the tree they build; :func:`circumnavigate`
    rejects any masks whose walk does not close after exactly 4N steps.
    """

    span: SpanningGraph
    flat_masks: bytes

    def __init__(self, span: SpanningGraph, flat_masks: bytes) -> None:
        self.__dict__.update(span=span, flat_masks=bytes(flat_masks))

    @cached_property
    def edges(self) -> frozenset[Edge]:
        height, flat = self.span.mega_height, self.flat_masks
        out = []
        for i in compress(range(len(flat)), flat):
            x, y = divmod(i, height)
            mask = flat[i]
            if mask & RIGHT:
                out.append(((x, y), (x + 1, y)))
            if mask & DOWN:
                out.append(((x, y), (x, y + 1)))
        return frozenset(out)


def _link(masks: bytearray, a: int, b: int, height: int) -> None:
    """Set the mask bits of the tree edge between node ids ``a < b``, for
    the brick merge, which learns an edge's direction only from its ids;
    the baselines set the bits of the direction each branch knows."""
    if b - a == height:
        masks[a] |= RIGHT
        masks[b] |= LEFT
    else:
        masks[a] |= DOWN
        masks[b] |= UP


def turn_count(node: Coord, neighbors: Iterable[Coord]) -> int:
    """Turns the circumnavigating robot makes around a tree node.

    Degree 2 costs nothing when the neighbors are collinear with the
    node and 2 otherwise; degrees 1 and 3 cost 2; degree 4 costs 4.
    A not-yet-connected node counts as a degree-1-like endpoint (2) so
    candidate-edge costs stay bounded during merging.
    """
    nbs = list(neighbors)
    deg = len(nbs)
    if deg == 0 or deg == 1 or deg == 3:
        return 2
    if deg == 2:
        (x1, y1), (x2, y2) = nbs
        collinear = x1 == x2 == node[0] or y1 == y2 == node[1]
        return 0 if collinear else 2
    if deg == 4:
        return 4
    raise ValueError(f"degree {deg} is impossible on a grid")


# turn_count of a node by its neighbour mask
_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # RIGHT, DOWN, LEFT, UP
TURNS = tuple(
    turn_count((0, 0), [s for i, s in enumerate(_STEPS) if mask >> i & 1])
    for mask in range(16)
)


# TURNS as a bytes.translate table over every byte value; every node of a
# tree of two or more nodes has an edge, so mask 0 is off the tree and
# maps to 0, as do the values no mask takes
_TURN_BYTES = bytes((0, *TURNS[1:])).ljust(256, b"\0")


# GAINS[bit][mask]: the change in a node's turns when the edge ``bit``
# joins the edges ``mask`` it has
GAINS = {bit: tuple(TURNS[mask | bit] - TURNS[mask] for mask in range(16))
         for bit in (RIGHT, DOWN, LEFT, UP)}


def merge_bricks(bricks: BrickSet, span: SpanningGraph) -> SpanningTree:
    """Greedily connect bricks into one spanning tree.

    Intra-brick edges enter the tree first. Remaining graph edges sit in
    a min-heap keyed by cached cost; on pop, an edge joining already
    connected components is dropped, an edge whose recomputed cost still
    matches its cached cost is accepted, and anything else is reinserted
    with the fresh cost. A cost is the change the edge makes to the turn
    function at its two endpoints, read off their neighbour masks
    through ``GAINS``. The heap holds plain ints ``cost * 2n + s`` over
    the slot ``s`` of the edge in ``span.edge_slots`` (``2n`` slots), so
    ties break on sorted edge order, as ``(cost, (a, b))`` of coordinates
    sorts.
    """
    height = span.mega_height
    free = span.free
    n = len(free)
    parent = list(range(n))
    masks = bytearray(n)
    components = span.free.count(1)

    if bricks.height != height:
        raise ValueError(f"bricks of height {bricks.height} do not lay out "
                         f"on a span of height {height}")
    for cells in bricks.runs:
        for a, b in zip(cells, cells[1:]):
            if a > b:
                a, b = b, a
            if not (b - a == height or (b - a == 1 and b % height)):
                raise ValueError(f"brick edge {divmod(a, height)}-"
                                 f"{divmod(b, height)} is not one unit step")
            if not (free[a] and free[b]):
                raise ValueError(f"brick edge {divmod(a, height)}-"
                                 f"{divmod(b, height)} leaves the graph")
            ra, rb = find(parent, a), find(parent, b)
            if ra == rb:
                raise ValueError("brick edges close a cycle")
            _link(masks, a, b, height)
            parent[ra] = rb
            components -= 1

    # every graph edge not yet in the tree; the keys are unique, so the
    # pops do not depend on the fill order
    total = 2 * n  # the slots of span.edge_slots
    gain_r, gain_d = GAINS[RIGHT], GAINS[DOWN]
    gain_l, gain_u = GAINS[LEFT], GAINS[UP]
    heap = []
    for s in compress(range(total), span.edge_slots):
        a = s >> 1
        mask = masks[a]
        if s & 1:
            if not mask & RIGHT:
                heap.append((gain_r[mask] + gain_l[masks[a + height]]) * total
                            + s)
        elif not mask & DOWN:
            heap.append((gain_d[mask] + gain_u[masks[a + 1]]) * total + s)
    heapq.heapify(heap)
    while heap and components > 1:
        cached, s = divmod(heapq.heappop(heap), total)
        a = s >> 1
        if s & 1:
            b = a + height
            fresh = gain_r[masks[a]] + gain_l[masks[b]]
        else:
            b = a + 1
            fresh = gain_d[masks[a]] + gain_u[masks[b]]
        ra, rb = find(parent, a), find(parent, b)
        if ra == rb:
            continue
        if fresh == cached:
            _link(masks, a, b, height)
            parent[ra] = rb
            components -= 1
        else:
            heapq.heappush(heap, fresh * total + s)

    if components > 1:
        raise DisconnectedGraphError(
            "spanning graph is disconnected; cannot merge into one tree"
        )
    return SpanningTree(span, masks)


def dfs_tree(span: SpanningGraph, root: Coord) -> SpanningTree:
    """Depth-first tree with fixed neighbor order (right, down, left, up):
    the node on top of the stack links to its first unvisited neighbour.

    The walk reads its own copy of the span's flags with H clear flags
    appended: an id ``i + H`` past the last column lands on them, and so
    does an id ``i - H`` before the first one, by negative indexing. The
    guards ``(i + 1) % H`` and ``i % H`` keep a step down or up inside
    its column."""
    if not span.has_node(root):
        raise ValueError(f"root {root} is not a spanning node")
    height = span.mega_height
    todo = bytearray(span.free) + bytes(height)
    masks = bytearray(len(span.free))
    r = root[0] * height + root[1]
    todo[r] = 0
    stack = [r]
    while stack:
        i = stack[-1]
        # a newly visited node has no tree edge yet, so its mask is set
        if todo[i + height]:
            j = i + height
            masks[i] |= RIGHT
            masks[j] = LEFT
        elif todo[i + 1] and (i + 1) % height:
            j = i + 1
            masks[i] |= DOWN
            masks[j] = UP
        elif todo[i - height]:
            j = i - height
            masks[i] |= LEFT
            masks[j] = RIGHT
        elif todo[i - 1] and i % height:
            j = i - 1
            masks[i] |= UP
            masks[j] = DOWN
        else:
            stack.pop()
            continue
        todo[j] = 0
        stack.append(j)
    if 1 in todo:
        raise DisconnectedGraphError("spanning graph is disconnected")
    return SpanningTree(span, masks)


def kruskal_tree(span: SpanningGraph, seed: int) -> SpanningTree:
    """Spanning tree from union-find over edges in seeded-random order.

    The graph is unweighted, so the shuffle order is the only degree of
    freedom; identical seeds give identical trees. The edges' flagged
    slots in ``span.edge_slots`` are shuffled in sorted edge order; the
    swaps of a shuffle depend only on the length of what it shuffles.
    """
    height = span.mega_height
    n = len(span.free)
    slots = list(compress(range(2 * n), span.edge_slots))
    random.Random(seed).shuffle(slots)
    parent = list(range(n))
    masks = bytearray(n)
    chosen = 0
    for s in slots:
        a = s >> 1
        right = s & 1
        b = a + height if right else a + 1
        ra, rb = find(parent, a), find(parent, b)
        if ra != rb:
            parent[ra] = rb
            if right:
                masks[a] |= RIGHT
                masks[b] |= LEFT
            else:
                masks[a] |= DOWN
                masks[b] |= UP
            chosen += 1
    if chosen != span.free.count(1) - 1:
        raise DisconnectedGraphError("spanning graph is disconnected")
    return SpanningTree(span, masks)


def tree_turns(tree: SpanningTree) -> int:
    """Total turns of the circumnavigating loop: the per-node turn
    function summed over all tree nodes.

    Each node's turns are read off its mask in one ``bytes.translate``
    of the flat masks through a 256-byte table, which maps mask 0, off
    the tree, to 0. An isolated single node circumnavigates as a square
    loop of four turns.
    """
    if tree.span.free.count(1) == 1:
        return 4
    return sum(tree.flat_masks.translate(_TURN_BYTES))


def tree_to_text(tree: SpanningTree) -> str:
    """Edge-list export: ``(x1,y1)-(x2,y2)`` per line, sorted."""
    lines = [f"({a[0]},{a[1]})-({b[0]},{b[1]})" for a, b in sorted(tree.edges)]
    return "\n".join(lines) + ("\n" if lines else "")
