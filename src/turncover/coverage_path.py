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
import struct
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from functools import cached_property
from itertools import accumulate, chain, compress, count, repeat
from operator import contains, ne, sub

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
    wrap-around pair) are 4-adjacent unit cells.

    The loop is its straight runs: each a ``range`` of unit-cell ids
    ``x * rows + y`` whose cells step on by the range's step (``+-1``
    down or up a column, ``+-rows`` right or left along a row), the
    last cell of a run into the first of the next, the last run's into
    the loop's first node. ``nodes`` is the coordinate view, derived on
    first access."""

    runs: tuple[range, ...]
    rows: int
    resolution_d: float

    @cached_property
    def nodes(self) -> tuple[Coord, ...]:
        return cells(self.runs, self.rows)

    @cached_property
    def _packed_starts(self) -> bytes:
        # four bytes a run: a list would keep an int object per run, half
        # as much again as the run's range
        runs = self.runs
        return struct.Struct(f"{len(runs) + 1}I").pack(
            0, *accumulate(map(len, runs)))

    @property
    def starts(self) -> Sequence[int]:
        """Loop index of each run's first node, then the loop's length."""
        return memoryview(self._packed_starts).cast("I")

    def __len__(self) -> int:
        return self.starts[-1]

    @property
    def turns(self) -> tuple[int, ...]:
        """Ascending loop indices at which the heading changes: index
        ``i`` when the step into node ``i`` differs from the step out of
        it, cyclically. A run's cells share their step out, so these are
        the run starts, the first one only when the last run's step
        differs from the first's."""
        runs = self.runs
        starts = self.starts[:-1]
        return tuple(starts if runs[-1].step != runs[0].step else starts[1:])

    def arc(self, first: int, length: int) -> tuple[range, ...]:
        """The runs of the ``length`` nodes from loop index ``first`` on,
        cyclically: the loop's own runs, cut at the arc's ends. The
        whole loop from index 0 is the loop's own tuple."""
        if length < 1:
            return ()
        runs, starts = self.runs, self.starts
        size = starts[-1]
        first %= size
        if first == 0 and length == size:
            return runs
        last = first + length - 1
        j = bisect_right(starts, first) - 1
        if last < size:
            m = bisect_right(starts, last) - 1
            pieces = list(runs[j:m + 1])
        else:  # the arc wraps past the loop's last node
            last -= size
            m = bisect_right(starts, last) - 1
            pieces = [*runs[j:], *runs[:m + 1]]
        pieces[-1] = pieces[-1][:last - starts[m] + 1]
        pieces[0] = pieces[0][first - starts[j]:]
        return tuple(pieces)

    def nearest(self, cell: Coord) -> int:
        """Loop index of the node nearest to ``cell`` (squared Euclidean
        distance), the lowest index on ties.

        A node hit exactly is found by range membership. Otherwise each
        run, a straight segment, is nearest at ``cell`` clamped to it:
        along the run the distance grows both ways from there."""
        runs, starts, rows = self.runs, self.starts, self.rows
        rx, ry = cell
        if 0 <= ry < rows:
            cell_id = rx * rows + ry
            hit = next(compress(count(), map(contains, runs,
                                              repeat(cell_id))), None)
            if hit is not None:
                return starts[hit] + runs[hit].index(cell_id)
        best = None
        for start, run in zip(starts, runs):
            x0, y0 = divmod(run[0], rows)
            x1, y1 = divmod(run[-1], rows)
            x, y = sorted((x0, rx, x1))[1], sorted((y0, ry, y1))[1]
            key = ((x - rx) ** 2 + (y - ry) ** 2,
                   start + abs(x - x0) + abs(y - y0))
            if best is None or key < best:
                best = key
        return best[1]


def cells(runs: Sequence[range], rows: int) -> tuple[Coord, ...]:
    """The ``(x, y)`` unit cells that the id runs ``runs`` walk."""
    return tuple(map(divmod, chain.from_iterable(runs), repeat(rows)))


def legs(runs: Sequence[range], rows: int
         ) -> Iterator[tuple[int, int, int, bool]]:
    """Each run of unit-cell ids as ``(fixed, first, last, vertical)``: a
    vertical run walks column ``fixed`` from row ``first`` to row
    ``last``, a horizontal one walks row ``fixed`` from column ``first``
    to column ``last``, either way round."""
    for run in runs:
        x, y = divmod(run.start, rows)
        step = run.step
        if step == 1 or step == -1:
            yield x, y, y + (len(run) - 1) * step, True
        else:
            yield y, x, x + (len(run) - 1) * (step // rows), False


def run_twists(runs: Sequence[range]) -> tuple[int, ...]:
    """Twists of the node sequence that the id runs ``runs`` walk: what
    :func:`extract_twists` finds on its coordinates.

    A run's cells step on by the run's step, and its last cell steps
    into the next run's first cell. So only the two cells at a cut can
    turn: the last one before it, on the step across the cut, and the
    first one after it, on the run's own step (a one-node run has none).
    A step equal to the one before adds nothing, a reversal adds its
    index twice, and the first and last nodes always count."""
    indices = [0]
    end, into, last = -1, 0, 0  # the last node so far: index, step in, id
    for run in runs:
        if end >= 0:  # the step across the cut, out of the last node
            step = run.start - last
            if step != into and end:
                indices.append(end)
                if step == -into:
                    indices.append(end)
            into = step
        if len(run) > 1:  # the run's own step, out of its first node
            step = run.step
            if step != into and end >= 0:
                indices.append(end + 1)
                if step == -into:
                    indices.append(end + 1)
            into = step
        end += len(run)
        last = run[-1]
    if end:
        indices.append(end)
    return tuple(indices)


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
    heading. The loop keeps those runs as ranges of unit-cell ids; their
    starts are its turns (:attr:`CoverageLoop.turns`).
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

    runs = []
    append = runs.append
    walked = 0
    x, y = start
    here = x * rows + y
    heading = moves[here]
    leftward = -rows  # one int object for the step of every leftward run
    while walked <= n:
        # the run's cells move on by ``heading`` from the cell ``here`` up
        # to ``end``, which is off the grid when no cell of the column or
        # row stops the run. The run's stop is the id of the next run's
        # first cell, and that run starts from the same int object.
        if heading == DOWN:
            base = x * rows
            end = down.find(0, here, base + rows)
            end = end - base if end >= 0 else rows
            closes = x == sx and y < sy <= end
            stop = base + (sy if closes else end)
            run = range(here, stop)
            y = end
        elif heading == UP:
            base = x * rows
            end = up.rfind(0, base, here)
            end = end - base if end >= 0 else -1
            closes = x == sx and end <= sy < y
            stop = base + (sy if closes else end)
            run = range(here, stop, -1)
            y = end
        elif heading == RIGHT:
            base = y * cols
            end = right.find(0, base + x, base + cols)
            end = end - base if end >= 0 else cols
            closes = y == sy and x < sx <= end
            stop = (sx if closes else end) * rows + y
            run = range(here, stop, rows)
            x = end
        else:
            base = y * cols
            end = left.rfind(0, base, base + x)
            end = end - base if end >= 0 else -1
            closes = y == sy and end <= sx < x
            stop = (sx if closes else end) * rows + y
            run = range(here, stop, leftward)
            x = end
        append(run)
        walked += len(run)
        if closes or not (0 <= x < cols and 0 <= y < rows):
            break
        here = stop
        heading = moves[here]
    if not closes or walked != n:
        raise AssertionError(
            f"circumnavigation did not close after exactly {n} steps"
        )
    return CoverageLoop(tuple(runs), rows, resolution_d)


def extract_twists(sequence: list[Coord] | tuple[Coord, ...]
                   ) -> tuple[int, ...]:
    """Indices of the twists of a path into its node sequence: one at
    every heading change, plus the path's first and last node; a
    reversal counts as two twist entries at the same node. No
    coordinates are kept: the path between consecutive twists is one
    straight leg of unit steps, as long as their index difference (0
    between a reversal's two entries).

    This is the definition of a path's twists. A plan does not call it:
    the partition reads each robot's twists off its sweep's id runs
    with :func:`run_twists`, to the same result.

    Headings are the steps of the code ``x * m + y``, with ``m`` two more
    than the y range: a step between 4-adjacent cells is ``+-1`` or
    ``+-m``, and a step between any other two cells is neither.
    """
    seq = sequence
    n = len(seq)
    if not n:
        raise ValueError("empty node sequence")
    if n == 1:
        return (0,)
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
    return tuple(indices)


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


def path_time(twists: tuple[int, ...], params: RobotParams,
              resolution_d: float) -> float:
    """Coverage time of one contiguous path from its twist indices: the
    times of the legs between consecutive twists, each ``leg *
    resolution_d`` meters long, plus the rotation term.

    Summation uses math.fsum so the result does not depend on leg
    order: mirror-image traversals of the same arc time out to the
    exact same float. Legs take few distinct lengths, so each length is
    timed once.
    """
    times: dict[int, float] = {}
    legs = []
    for leg in map(sub, twists[1:], twists):
        if leg not in times:
            times[leg] = leg_time(leg * resolution_d, params)
        legs.append(times[leg])
    return math.fsum(legs + [turn_term(len(twists), params)])
