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
from functools import cached_property
from itertools import compress, repeat
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

    @cached_property
    def turns(self) -> tuple[int, ...]:
        """Ascending loop indices at which the heading changes: index
        ``i`` when the step into node ``i`` differs from the step out of
        it, cyclically. Headings are the steps of the code ``2x + y``:
        loop neighbours are 4-adjacent, so the steps +-1 and +-2 tell the
        four headings apart. :func:`circumnavigate` stores the turns it
        walked instead; this is not a field, so equality, hashing and
        ``repr`` ignore it."""
        code = [2 * x + y for x, y in self.nodes]
        steps = list(map(sub, code[1:] + code[:1], code))
        return tuple(compress(range(len(steps)),
                              map(ne, steps[-1:] + steps[:-1], steps)))


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


# The walk's move from each quadrant of a mega cell, by the cell's mask:
# the heading's own bit (RIGHT, DOWN, LEFT, UP) as a byte code. The bits
# above the four edge bits play no part, so 16 entries repeat to 256.
_TOP_LEFT = bytes(UP if mask & UP else RIGHT for mask in range(16)) * 16
_TOP_RIGHT = bytes(RIGHT if mask & RIGHT else DOWN for mask in range(16)) * 16
_BOTTOM_RIGHT = bytes(DOWN if mask & DOWN else LEFT for mask in range(16)) * 16
_BOTTOM_LEFT = bytes(LEFT if mask & LEFT else UP for mask in range(16)) * 16
# per heading, 1 for the cells whose move has that heading
_HEADING = {h: bytes(h) + b"\1" + bytes(255 - h)
            for h in (RIGHT, DOWN, LEFT, UP)}


def circumnavigate(tree: SpanningTree, start: Coord,
                   resolution_d: float = 0.5) -> CoverageLoop:
    """Loop around the tree by the quadrant rule, beginning at ``start``;
    every coverage node is visited exactly once.

    The loop has positive signed area in (x, y) coordinates
    (counterclockwise with the y axis pointing up). The successor of a
    cell is fixed, so a walk that first returns to ``start`` after
    exactly 4N steps has visited 4N distinct cells; any other outcome,
    a step off the grid included, means the tree was not connected.

    The walk goes by straight runs. Each unit cell's move is written
    once, a mega column at a time, and a run ends at the first cell of
    its column (down, up) or row (right, left) whose move has another
    heading. The run starts are the loop's turns, which the loop keeps
    as :attr:`CoverageLoop.turns`.
    """
    span, masks = tree.span, tree.flat_masks
    height = span.mega_height
    rows, cols = 2 * height, 2 * span.mega_width
    sx, sy = start
    if not span.has_node((sx >> 1, sy >> 1)):
        raise ValueError(f"start {start} lies outside the tree's mega cells")
    n = 4 * span.free.count(1)
    moves = bytearray(rows * cols)  # column-major: x * rows + y
    for mx in range(cols // 2):
        column = masks[mx * height:(mx + 1) * height]
        base = 2 * mx * rows
        moves[base:base + rows:2] = column.translate(_TOP_LEFT)
        moves[base + 1:base + rows:2] = column.translate(_BOTTOM_LEFT)
        base += rows
        moves[base:base + rows:2] = column.translate(_TOP_RIGHT)
        moves[base + 1:base + rows:2] = column.translate(_BOTTOM_RIGHT)
    by_row = bytearray(rows * cols)  # row-major: y * cols + x
    for row in range(rows):
        by_row[row * cols:(row + 1) * cols] = moves[row::rows]
    down, up = moves.translate(_HEADING[DOWN]), moves.translate(_HEADING[UP])
    right = by_row.translate(_HEADING[RIGHT])
    left = by_row.translate(_HEADING[LEFT])

    nodes: list[Coord] = []
    extend = nodes.extend
    turns = []
    x, y = start
    heading = first = moves[x * rows + y]
    while len(nodes) <= n:
        turns.append(len(nodes))
        # the run's cells move on by ``heading`` up to ``end``, which is
        # off the grid when no cell of the column or row stops the run.
        # Its tuples are made here, in loop order: tuples laid out in
        # that order make reading the loop faster later.
        if heading == DOWN:
            base = x * rows
            end = down.find(0, base + y, base + rows)
            end = end - base if end >= 0 else rows
            closes = x == sx and y < sy <= end
            extend(zip(repeat(x), range(y, sy if closes else end)))
            y = end
        elif heading == UP:
            base = x * rows
            end = up.rfind(0, base, base + y)
            end = end - base if end >= 0 else -1
            closes = x == sx and end <= sy < y
            extend(zip(repeat(x), range(y, sy if closes else end, -1)))
            y = end
        elif heading == RIGHT:
            base = y * cols
            end = right.find(0, base + x, base + cols)
            end = end - base if end >= 0 else cols
            closes = y == sy and x < sx <= end
            extend(zip(range(x, sx if closes else end), repeat(y)))
            x = end
        else:
            base = y * cols
            end = left.rfind(0, base, base + x)
            end = end - base if end >= 0 else -1
            closes = y == sy and end <= sx < x
            extend(zip(range(x, sx if closes else end, -1), repeat(y)))
            x = end
        if closes or not (0 <= x < cols and 0 <= y < rows):
            break
        heading = moves[x * rows + y]
    if not closes or len(nodes) != n:
        raise AssertionError(
            f"circumnavigation did not close after exactly {n} steps"
        )
    if heading == first:  # the loop runs straight through its start
        del turns[0]
    loop = CoverageLoop(tuple(nodes), resolution_d)
    loop.__dict__["turns"] = tuple(turns)
    return loop


def extract_twists(sequence: list[Coord] | tuple[Coord, ...]) -> TwistSet:
    """Twist at every heading change, plus the path's first and last
    node; a reversal counts as two twist entries at the same node.

    This is the definition of a path's twists. A plan does not call it:
    the partition cuts each robot's twists from the loop's turns, to the
    same result.

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
