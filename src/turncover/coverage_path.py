"""Circumnavigation loop generation and the turn-aware time model.

The robot hugs the spanning tree as in STC (Gabriely & Rimon 2001): its
next unit cell depends only on the quadrant of its mega cell that it is
in and on which tree edges leave that mega cell. From the top-left
quadrant it goes up along an up edge, else right; from the top-right,
right along a right edge, else down; from the bottom-right, down along a
down edge, else left; from the bottom-left, left along a left edge, else
up. The walk keeps the tree on one side and closes after visiting each
of the 4N unit cells of N mega cells exactly once. Timing assumes
trapezoidal motion from rest on every leg and a fixed stop-and-rotate
cost per 90-degree twist.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import ne, sub

from .grid_map import Coord, Record
from .tree_builder import DOWN, LEFT, RIGHT, UP, SpanningTree


class RobotParams(Record):
    """Kinematics of the covering robot; defaults match the simulated
    differential-drive platform (v_max 0.5 m/s, omega 0.8 rad/s,
    accel 0.6 m/s^2). The tool width is the map's ``resolution_d``."""

    accel: float
    v_max: float
    omega: float

    def __init__(self, accel: float = 0.6, v_max: float = 0.5,
                 omega: float = 0.8) -> None:
        for name, value in (("accel", accel), ("v_max", v_max),
                            ("omega", omega)):
            if not value > 0:  # NaN fails too
                raise ValueError(f"{name} must be strictly positive")
        self.__dict__.update(accel=accel, v_max=v_max, omega=omega)


class CoverageLoop(Record):
    """Cyclic sequence of coverage nodes; consecutive entries (and the
    wrap-around pair) are 4-adjacent unit cells."""

    nodes: tuple[Coord, ...]
    resolution_d: float

    def __init__(self, nodes: tuple[Coord, ...],
                 resolution_d: float = 0.5) -> None:
        self.__dict__.update(nodes=nodes, resolution_d=resolution_d)

    def __len__(self) -> int:
        return len(self.nodes)


class TwistSet(Record):
    """Stop-and-rotate points of one contiguous path.

    ``indices`` point into the source node sequence; the first and last
    node always appear, and a 180-degree reversal contributes the same
    index twice. ``points`` are the corresponding unit-cell coordinates.
    """

    indices: tuple[int, ...]
    points: tuple[Coord, ...]

    def __init__(self, indices: tuple[int, ...],
                 points: tuple[Coord, ...]) -> None:
        self.__dict__.update(indices=indices, points=points)

    @property
    def n(self) -> int:
        return len(self.indices)


def circumnavigate(tree: SpanningTree, start: Coord,
                   resolution_d: float = 0.5) -> CoverageLoop:
    """Loop around the tree by the quadrant rule, beginning at ``start``;
    every coverage node is visited exactly once.

    The loop has positive signed area in (x, y) coordinates
    (counterclockwise with the y axis pointing up). The successor of a
    cell is fixed, so a walk that first returns to ``start`` after
    exactly 4N steps has visited 4N distinct cells; any other outcome
    means the tree was not connected.
    """
    height, masks = tree.height, tree.flat_masks
    sx, sy = start
    if (sx >> 1, sy >> 1) not in tree.nodes:
        raise ValueError(f"start {start} lies outside the tree's mega cells")
    n = 4 * len(tree.nodes)
    nodes = [start]
    append = nodes.append
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
        if x == sx and y == sy:
            break
        append((x, y))
    if len(nodes) != n:
        raise AssertionError(
            f"circumnavigation did not close after exactly {n} steps"
        )
    return CoverageLoop(tuple(nodes), resolution_d)


def extract_twists(sequence: list[Coord] | tuple[Coord, ...]) -> TwistSet:
    """Twist at every heading change, plus the path's first and last
    node; a reversal counts as two twist entries at the same node.

    Headings are the steps of the code ``x * m + y``, with ``m`` two more
    than the y range: a step between 4-adjacent cells is ``+-1`` or
    ``+-m``, and a step between any other two cells is neither.
    """
    seq = sequence
    n = len(seq)
    if not n:
        raise ValueError("empty node sequence")
    if n == 1:
        return TwistSet((0,), (seq[0],))
    ys = [y for _, y in seq]
    m = max(ys) - min(ys) + 2
    code = [x * m + y for x, y in seq]
    step = list(map(sub, code[1:], code))
    unit = {1, -1, m, -m}
    if not unit.issuperset(step):
        i = next(i for i, d in enumerate(step) if d not in unit)
        raise ValueError(f"nodes {seq[i]} and {seq[i + 1]} are not 4-adjacent")
    indices = [0]
    for i in compress(range(1, n - 1), map(ne, step, step[1:])):
        indices.append(i)
        if step[i] == -step[i - 1]:  # a reversal counts twice
            indices.append(i)
    indices.append(n - 1)
    return TwistSet(tuple(indices), tuple([seq[i] for i in indices]))


def leg_time(distance: float, params: RobotParams) -> float:
    """Travel time of one straight leg starting and ending at rest.

    Short legs never reach v_max (pure acceleration); long legs hold
    v_max between the ramps. A time that is not finite (the kinematics
    or the distance lie outside the float range) raises ``ValueError``.
    """
    if distance < 0:
        raise ValueError("distance must be nonnegative")
    try:
        threshold = params.v_max ** 2 / (2 * params.accel)
    except OverflowError:  # no leg is long enough to reach v_max
        threshold = math.inf
    if distance <= threshold:
        time = math.sqrt(2 * distance / params.accel)
    else:
        time = distance / params.v_max + params.v_max / (2 * params.accel)
    if not math.isfinite(time):
        raise ValueError(
            f"leg time is not finite for a leg of {distance} m under "
            f"accel={params.accel}, v_max={params.v_max}"
        )
    return time


def turn_term(n_twists: int, params: RobotParams) -> float:
    """Total rotation time for a path with ``n_twists`` twist entries;
    ``ValueError`` when it is not finite."""
    time = max(0, n_twists - 2) * math.pi / (4 * params.omega)
    if not math.isfinite(time):
        raise ValueError(
            f"rotation time is not finite for {n_twists} twists under "
            f"omega={params.omega}"
        )
    return time


def path_time(twists: TwistSet, params: RobotParams,
              resolution_d: float = 0.5) -> float:
    """Coverage time of one contiguous path: leg times between
    consecutive twists plus the rotation term.

    Summation uses math.fsum so the result does not depend on leg
    order: mirror-image traversals of the same arc time out to the
    exact same float. Legs take few distinct lengths, so each length is
    timed once.
    """
    times: dict[float, float] = {}
    legs = []
    for (x1, y1), (x2, y2) in zip(twists.points, twists.points[1:]):
        distance = math.hypot(x2 - x1, y2 - y1) * resolution_d
        if distance not in times:
            times[distance] = leg_time(distance, params)
        legs.append(times[distance])
    return math.fsum(legs + [turn_term(twists.n, params)])
