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


class SpanningTree:
    """Undirected tree over spanning-graph nodes."""

    def __init__(self, nodes: Iterable[Coord], edges: Iterable[Edge]):
        self.nodes = frozenset(nodes)
        self.edges = frozenset(normalize_edge(a, b) for a, b in edges)
        adj: dict[Coord, list[Coord]] = {n: [] for n in self.nodes}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        self._adj = {n: tuple(sorted(nbs)) for n, nbs in adj.items()}
        if len(self.edges) != len(self.nodes) - 1:
            raise ValueError(
                f"{len(self.edges)} edges for {len(self.nodes)} nodes is not a tree"
            )

    def neighbors(self, node: Coord) -> tuple[Coord, ...]:
        return self._adj[node]

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
    heap key.
    """
    parent: dict[Coord, Coord] = {n: n for n in span.nodes}

    def union(a: Coord, b: Coord) -> None:
        parent[find(parent, a)] = find(parent, b)

    tree_edges: set[Edge] = set()
    adjacency: dict[Coord, set[Coord]] = {n: set() for n in span.nodes}

    def add_edge(a: Coord, b: Coord) -> None:
        tree_edges.add(normalize_edge(a, b))
        adjacency[a].add(b)
        adjacency[b].add(a)

    for brick in bricks.bricks:
        for j in range(len(brick) - 1):
            union(brick[j], brick[j + 1])
            add_edge(brick[j], brick[j + 1])

    heap: list[tuple[int, Edge]] = []
    for edge in span.edges():
        if edge not in tree_edges:
            heapq.heappush(heap, (edge_cost(edge, adjacency), edge))

    components = len({find(parent, n) for n in span.nodes})
    while heap and components > 1:
        cached, edge = heapq.heappop(heap)
        a, b = edge
        if find(parent, a) == find(parent, b):
            continue
        cost = edge_cost(edge, adjacency)
        if cost == cached:
            add_edge(a, b)
            union(a, b)
            components -= 1
        else:
            heapq.heappush(heap, (cost, edge))

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
    return sum(turn_count(n, tree.neighbors(n)) for n in tree.nodes)


def tree_to_text(tree: SpanningTree) -> str:
    """Edge-list export: ``(x1,y1)-(x2,y2)`` per line, sorted."""
    lines = [f"({a[0]},{a[1]})-({b[0]},{b[1]})" for a, b in tree.sorted_edges()]
    return "\n".join(lines) + ("\n" if lines else "")
