"""Circumnavigation loop generation and the turn-aware time model.

The robot hugs the spanning tree: unit-cell moves are allowed inside a
mega cell unless they would cross the tree skeleton, and between mega
cells only alongside a tree edge. Those rules make every coverage node
degree 2, so the allowed moves form a single loop visiting each unit
cell exactly once. Timing assumes trapezoidal motion from rest on every
leg and a fixed stop-and-rotate cost per 90-degree twist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid_map import Coord, coverage_nodes_of, normalize_edge
from .tree_builder import SpanningTree


@dataclass(frozen=True)
class RobotParams:
    """Kinematics of the covering robot; defaults match the simulated
    differential-drive platform (v_max 0.5 m/s, omega 0.8 rad/s,
    accel 0.6 m/s^2). The tool width is the map's ``resolution_d``."""

    accel: float = 0.6
    v_max: float = 0.5
    omega: float = 0.8

    def __post_init__(self) -> None:
        for name in ("accel", "v_max", "omega"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class CoverageLoop:
    """Cyclic sequence of coverage nodes; consecutive entries (and the
    wrap-around pair) are 4-adjacent unit cells."""

    nodes: tuple[Coord, ...]
    resolution_d: float = 0.5

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class TwistSet:
    """Stop-and-rotate points of one contiguous path.

    ``indices`` point into the source node sequence; the first and last
    node always appear, and a 180-degree reversal contributes the same
    index twice. ``points`` are the corresponding unit-cell coordinates.
    """

    indices: tuple[int, ...]
    points: tuple[Coord, ...]

    @property
    def n(self) -> int:
        return len(self.indices)


def _direction(a: Coord, b: Coord) -> Coord:
    dx, dy = b[0] - a[0], b[1] - a[1]
    if abs(dx) + abs(dy) != 1:
        raise ValueError(f"nodes {a} and {b} are not 4-adjacent")
    return (dx, dy)


def _skeleton(tree: SpanningTree) -> set[tuple[Coord, str]]:
    """Unit lattice segments covered by the tree drawn through mega-cell
    centers; keys are (lattice point, axis)."""
    segs: set[tuple[Coord, str]] = set()
    for (ax, ay), (bx, by) in tree.edges:
        cx, cy = 2 * ax + 1, 2 * ay + 1
        if ay == by:  # horizontal tree edge -> two horizontal lattice segments
            segs.add(((cx, cy), "h"))
            segs.add(((cx + 1, cy), "h"))
        else:
            segs.add(((cx, cy), "v"))
            segs.add(((cx, cy + 1), "v"))
    return segs


def _allowed_moves(tree: SpanningTree) -> dict[Coord, list[Coord]]:
    cover = coverage_nodes_of(tree.nodes)
    skeleton = _skeleton(tree)
    adj: dict[Coord, list[Coord]] = {c: [] for c in cover}

    def allowed(u: Coord, v: Coord) -> bool:
        mu = (u[0] // 2, u[1] // 2)
        mv = (v[0] // 2, v[1] // 2)
        if mu != mv and normalize_edge(mu, mv) not in tree.edges:
            return False
        if v[0] == u[0] + 1:
            return ((u[0] + 1, u[1]), "v") not in skeleton
        return ((u[0], u[1] + 1), "h") not in skeleton

    for u in cover:
        for v in ((u[0] + 1, u[1]), (u[0], u[1] + 1)):
            if v in cover and allowed(u, v):
                adj[u].append(v)
                adj[v].append(u)
    return adj


def circumnavigate(tree: SpanningTree, start: Coord,
                   resolution_d: float = 0.5) -> CoverageLoop:
    """Counterclockwise wall-following loop around the tree, rotated to
    begin at ``start``; every coverage node is visited exactly once."""
    adj = _allowed_moves(tree)
    if start not in adj:
        raise ValueError(f"start {start} lies outside the tree's mega cells")
    bad = [c for c, nbs in adj.items() if len(nbs) != 2]
    if bad:
        raise AssertionError(f"circumnavigation graph not 2-regular at {bad[:4]}")
    loop = [start]
    prev = None
    cur = start
    while True:
        a, b = adj[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        loop.append(nxt)
        prev, cur = cur, nxt
    if len(loop) != len(adj):
        raise AssertionError(
            f"circumnavigation loop covers {len(loop)} of {len(adj)} nodes"
        )
    if _signed_area(loop) < 0:
        loop = [loop[0]] + loop[:0:-1]
    return CoverageLoop(tuple(loop), resolution_d)


def _signed_area(loop: list[Coord]) -> int:
    total = 0
    for i, (x1, y1) in enumerate(loop):
        x2, y2 = loop[(i + 1) % len(loop)]
        total += x1 * y2 - x2 * y1
    return total


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


def leg_time(distance: float, params: RobotParams) -> float:
    """Travel time of one straight leg starting and ending at rest.

    Short legs never reach v_max (pure acceleration); long legs hold
    v_max between the ramps.
    """
    if distance < 0:
        raise ValueError("distance must be nonnegative")
    threshold = params.v_max ** 2 / (2 * params.accel)
    if distance <= threshold:
        return math.sqrt(2 * distance / params.accel)
    return distance / params.v_max + params.v_max / (2 * params.accel)


def turn_term(n_twists: int, params: RobotParams) -> float:
    """Total rotation time for a path with ``n_twists`` twist entries."""
    return max(0, n_twists - 2) * math.pi / (4 * params.omega)


def path_time(twists: TwistSet, params: RobotParams,
              resolution_d: float = 0.5) -> float:
    """Coverage time of one contiguous path: leg times between
    consecutive twists plus the rotation term.

    Summation uses math.fsum so the result does not depend on leg
    order: mirror-image traversals of the same arc time out to the
    exact same float.
    """
    legs = [
        leg_time(math.hypot(x2 - x1, y2 - y1) * resolution_d, params)
        for (x1, y1), (x2, y2) in zip(twists.points, twists.points[1:])
    ]
    return math.fsum(legs + [turn_term(twists.n, params)])


def loop_to_metric(loop: CoverageLoop) -> list[tuple[float, float]]:
    """Unit-cell centers in meters."""
    d = loop.resolution_d
    return [((x + 0.5) * d, (y + 0.5) * d) for x, y in loop.nodes]
