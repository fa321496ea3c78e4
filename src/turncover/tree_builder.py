"""Spanning tree construction over the mega-cell graph.

The greedy merger keeps every intra-brick edge and connects bricks with
the cheapest available edges, where an edge's cost is the change in the
per-node turn function it causes. DFS and seeded-Kruskal trees are
provided as comparison baselines.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable

from .brick_tiling import BrickSet
from .grid_map import (
    Coord,
    DisconnectedGraphError,
    Edge,
    SpanningGraph,
    find,
    normalize_edge,
)


# Neighbour-mask bits of a mega cell: one per tree edge leaving it.
RIGHT, DOWN, LEFT, UP = 1, 2, 4, 8


def _edge_bits(a: Coord, b: Coord) -> tuple[int, int]:
    """Mask bits that the normalized edge ``a < b`` sets at ``a`` and at
    ``b``: right/left for a horizontal edge, down/up for a vertical one."""
    return (RIGHT, LEFT) if a[1] == b[1] else (DOWN, UP)


class SpanningTree:
    """Undirected tree over spanning-graph nodes.

    ``masks`` maps every node to the bits (``RIGHT``, ``DOWN``, ``LEFT``,
    ``UP``) of the tree edges that leave it.
    """

    def __init__(self, nodes: Iterable[Coord], edges: Iterable[Edge]):
        self.nodes = frozenset(nodes)
        self.edges = frozenset(normalize_edge(a, b) for a, b in edges)
        masks = dict.fromkeys(self.nodes, 0)
        for a, b in self.edges:
            if a not in masks or b not in masks:
                raise ValueError(f"edge {a}-{b} leaves the tree's nodes")
            if (b[0] - a[0], b[1] - a[1]) not in ((1, 0), (0, 1)):
                raise ValueError(f"edge {a}-{b} is not one unit step long")
            bit_a, bit_b = _edge_bits(a, b)
            masks[a] |= bit_a
            masks[b] |= bit_b
        self.masks = masks
        if len(self.edges) != len(self.nodes) - 1:
            raise ValueError(
                f"{len(self.edges)} edges for {len(self.nodes)} nodes is not a tree"
            )

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


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


def edge_cost(edge: Edge, adjacency: dict[Coord, set[Coord]]) -> int:
    """Turn-count delta of adding ``edge`` to the current tree state."""
    a, b = edge
    cost = 0
    for node, other in ((a, b), (b, a)):
        before = turn_count(node, adjacency.get(node, ()))
        after = turn_count(node, set(adjacency.get(node, ())) | {other})
        cost += after - before
    return cost


def merge_bricks(bricks: BrickSet, span: SpanningGraph) -> SpanningTree:
    """Greedily connect bricks into one spanning tree.

    Intra-brick edges enter the tree first. Remaining graph edges sit in
    a min-heap keyed by cached cost; on pop, an edge joining already
    connected components is dropped, an edge whose recomputed cost still
    matches its cached cost is accepted, and anything else is reinserted
    with the fresh cost. Ties break on lexicographic edge order via the
    heap key. A cost is :func:`edge_cost`, read off the endpoints'
    neighbour masks through ``TURNS``.
    """
    parent: dict[Coord, Coord] = {n: n for n in span.nodes}
    masks = dict.fromkeys(span.nodes, 0)
    tree_edges: list[Edge] = []
    components = len(span.nodes)

    def add_edge(a: Coord, b: Coord) -> None:
        nonlocal components
        bit_a, bit_b = _edge_bits(a, b)
        masks[a] |= bit_a
        masks[b] |= bit_b
        tree_edges.append((a, b))
        ra, rb = find(parent, a), find(parent, b)
        if ra != rb:
            parent[ra] = rb
            components -= 1

    def cost(a: Coord, b: Coord) -> int:
        bit_a, bit_b = _edge_bits(a, b)
        ma, mb = masks[a], masks[b]
        return (TURNS[ma | bit_a] - TURNS[ma]
                + TURNS[mb | bit_b] - TURNS[mb])

    for brick in bricks.bricks:
        for a, b in zip(brick, brick[1:]):
            add_edge(*normalize_edge(a, b))

    # every graph edge not yet in the tree, unsorted: the keys
    # (cost, edge) are unique, so the pops come in sorted order anyway
    heap = []
    for a in span.nodes:
        x, y = a
        for b, bit in (((x + 1, y), RIGHT), ((x, y + 1), DOWN)):
            if b in masks and not masks[a] & bit:
                heap.append((cost(a, b), (a, b)))
    heapq.heapify(heap)
    while heap and components > 1:
        cached, edge = heapq.heappop(heap)
        a, b = edge
        if find(parent, a) == find(parent, b):
            continue
        fresh = cost(a, b)
        if fresh == cached:
            add_edge(a, b)
        else:
            heapq.heappush(heap, (fresh, edge))

    if components > 1:
        raise DisconnectedGraphError(
            "spanning graph is disconnected; cannot merge into one tree"
        )
    return SpanningTree(span.nodes, tree_edges)


def dfs_tree(span: SpanningGraph, root: Coord) -> SpanningTree:
    """Depth-first tree with fixed neighbor order (right, down, left, up)."""
    if root not in span.nodes:
        raise ValueError(f"root {root} is not a spanning node")
    visited = {root}
    edges: list[Edge] = []
    stack: list[tuple[Coord, iter]] = [(root, iter(span.neighbors(root)))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for nb in it:
            if nb not in visited:
                visited.add(nb)
                edges.append(normalize_edge(node, nb))
                stack.append((nb, iter(span.neighbors(nb))))
                advanced = True
                break
        if not advanced:
            stack.pop()
    if len(visited) != len(span.nodes):
        raise DisconnectedGraphError("spanning graph is disconnected")
    return SpanningTree(span.nodes, edges)


def kruskal_tree(span: SpanningGraph, seed: int) -> SpanningTree:
    """Spanning tree from union-find over edges in seeded-random order.

    The graph is unweighted, so the shuffle order is the only degree of
    freedom; identical seeds give identical trees.
    """
    import random

    rng = random.Random(seed)
    edges = span.edges()
    rng.shuffle(edges)
    parent: dict[Coord, Coord] = {n: n for n in span.nodes}
    chosen = []
    for a, b in edges:
        ra, rb = find(parent, a), find(parent, b)
        if ra != rb:
            parent[ra] = rb
            chosen.append((a, b))
    if len(chosen) != len(span.nodes) - 1:
        raise DisconnectedGraphError("spanning graph is disconnected")
    return SpanningTree(span.nodes, chosen)


def tree_turns(tree: SpanningTree) -> int:
    """Total turns of the circumnavigating loop: the per-node turn
    function summed over all tree nodes.

    An isolated single node circumnavigates as a square loop of four
    turns.
    """
    if len(tree.nodes) == 1:
        return 4
    return sum(TURNS[mask] for mask in tree.masks.values())


def tree_to_text(tree: SpanningTree) -> str:
    """Edge-list export: ``(x1,y1)-(x2,y2)`` per line, sorted."""
    lines = [f"({a[0]},{a[1]})-({b[0]},{b[1]})" for a, b in tree.sorted_edges()]
    return "\n".join(lines) + ("\n" if lines else "")
