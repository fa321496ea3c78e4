"""Min-max partition of the circumnavigation loop among k robots.

Each robot owns one contiguous arc of the loop containing its anchored
start. An arc is covered by sweeping from the anchor to one end,
reversing, and sweeping to the other end; its cost is the cheaper of
the two sweep orders under the turn-aware time model, evaluated exactly
by :class:`LoopCostModel`. The cut points between consecutive anchors
come from a search on the makespan in which each probe is one greedy
feasibility sweep. A feasible probe lowers the upper bound to the
makespan it achieved; an infeasible one raises the lower bound to the
least arc cost it saw above its budget. The search ends when the bounds
meet, so the result is the exact optimum, with no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .coverage_path import (
    CoverageLoop,
    RobotParams,
    TwistSet,
    extract_twists,
    leg_time,
    path_time,
    turn_term,
)
from .grid_map import Coord


@dataclass(frozen=True)
class RobotStart:
    robot_id: int
    requested: Coord
    anchored: int  # loop index


@dataclass(frozen=True)
class RobotAssignment:
    robot_id: int
    anchored: int
    arc_start: int  # loop index of first arc node
    arc_length: int
    sequence: tuple[Coord, ...]  # concrete traversal, reversal included
    twists: TwistSet
    time: float


@dataclass(frozen=True)
class CoveragePlan:
    loop: CoverageLoop
    robots: tuple[RobotAssignment, ...]

    @property
    def makespan(self) -> float:
        return max(r.time for r in self.robots)

    def min_time(self) -> float:
        return min(r.time for r in self.robots)


def anchor_starts(loop: CoverageLoop, requested: list[Coord]) -> list[RobotStart]:
    """Map each requested start cell to its nearest loop node.

    Ties go to the lowest loop index; a collision sends the later robot
    to the next free index clockwise (against the loop's
    counterclockwise storage order).
    """
    size = len(loop)
    if len(requested) > size:
        raise ValueError(f"{len(requested)} robots exceed loop length {size}")
    index = {node: i for i, node in enumerate(loop.nodes)}
    taken: set[int] = set()
    starts = []
    for rid, (rx, ry) in enumerate(requested):
        best = index.get((rx, ry))
        if best is None:
            best = min(
                range(size),
                key=lambda i: ((loop.nodes[i][0] - rx) ** 2
                               + (loop.nodes[i][1] - ry) ** 2, i),
            )
        while best in taken:
            best = (best - 1) % size
        taken.add(best)
        starts.append(RobotStart(rid, (rx, ry), best))
    return starts


def _arc_sequences(
    loop: CoverageLoop, arc_start: int, arc_length: int, anchor: int
) -> list[list[Coord]]:
    """Concrete node sequences for the two sweep strategies."""
    size = len(loop)
    if arc_length < 1 or arc_length > size:
        raise ValueError(f"bad arc length {arc_length}")
    first = arc_start % size
    p = (anchor - first) % size
    if not (0 <= anchor < size and p < arc_length):
        raise ValueError(f"anchor {anchor} outside arc")
    end = first + arc_length
    nodes = list(loop.nodes[first:end])
    if end > size:
        nodes += loop.nodes[:end - size]
    seq_a = nodes[p::-1] + nodes[1:]          # near start end first
    seq_b = nodes[p:] + nodes[-2::-1]         # far end first
    return [seq_a, seq_b]


def arc_cost(
    loop: CoverageLoop, arc_start: int, arc_length: int, anchor: int,
    params: RobotParams,
) -> float:
    """Cheaper of the two anchored sweep strategies, timed on the
    concrete node sequence (reversal twists included)."""
    seqs = _arc_sequences(loop, arc_start, arc_length, anchor)
    return min(
        path_time(extract_twists(s), params, loop.resolution_d) for s in seqs
    )


class LoopCostModel:
    """O(1) arc-cost evaluation on exact integer tables.

    Invariant: every ``leg_time`` and ``turn_term`` value an arc of this
    loop can need is stored as an exact integer, the float times a common
    power of two (``float.as_integer_ratio`` gives power-of-two
    denominators). Leg prefix sums stay exact Python ints and a cost is
    divided by that power of two once, at the end. Integer true division
    and :func:`math.fsum` both round the exact sum correctly, so
    :meth:`arc_cost` returns bit for bit what module-level
    :func:`arc_cost` returns through :func:`path_time`. Tables are sized by
    need: legs up to the longest straight run, turn terms up to two full
    sweeps plus the reversal.
    """

    def __init__(self, loop: CoverageLoop, params: RobotParams):
        self.size = size = len(loop)
        d = loop.resolution_d
        nodes = loop.nodes
        dirs = [
            (nodes[(i + 1) % size][0] - nodes[i][0],
             nodes[(i + 1) % size][1] - nodes[i][1])
            for i in range(size)
        ]
        turning = [dirs[i - 1] != dirs[i] for i in range(size)]
        turn_idx = [i for i in range(size) if turning[i]]
        # two unrolled periods of turning positions; _rank[x] counts those <= x
        self._turns2 = doubled = turn_idx + [t + size for t in turn_idx]
        self._rank = list(accumulate(turning * 2))
        runs = [b - a for a, b in zip(doubled, doubled[1:])]
        legs = [leg_time(n * d, params) for n in range(max(runs) + 1)]
        turns = [turn_term(n, params) for n in range(2 * len(turn_idx) + 5)]
        ratios = [v.as_integer_ratio() for v in legs + turns]
        self._scale = scale = max(den for _, den in ratios)
        exact = [num * (scale // den) for num, den in ratios]
        self._leg, self._turn = exact[:len(legs)], exact[len(legs):]
        prefix = [0]
        for run in runs:
            prefix.append(prefix[-1] + self._leg[run])
        self._leg_prefix = prefix

    def _legs(self, first: int, last: int) -> tuple[int, int]:
        """Scaled leg-time sum and interior twist count of the one-way
        sweep over virtual indices ``first < last``."""
        lo, hi = self._rank[first], self._rank[last - 1]
        if hi == lo:
            return self._leg[last - first], 0
        turns = self._turns2
        return (
            self._leg[turns[lo] - first]
            + self._leg_prefix[hi - 1] - self._leg_prefix[lo]
            + self._leg[last - turns[hi - 1]],
            hi - lo,
        )

    def sweep(self, start: int, span: int) -> float:
        """Time of a one-way sweep covering ``span + 1`` nodes forward
        from loop index ``start`` (span 0 is a standstill)."""
        if span == 0:
            return 0.0
        legs, interior = self._legs(start, start + span)
        return (legs + self._turn[2 + interior]) / self._scale

    def arc_cost(self, arc_start: int, arc_length: int, anchor: int) -> float:
        """Equivalent of module-level :func:`arc_cost` on cyclic indices."""
        size = self.size
        first = arc_start % size
        span = arc_length - 1
        offset = (anchor - arc_start) % size
        if not 0 <= offset <= span:
            raise ValueError(f"anchor {anchor} outside arc")
        if span == 0:
            return 0.0
        last = first + span
        full, interior = self._legs(first, last)
        turn = self._turn
        if offset == 0 or offset == span:
            # a one-way sweep; the reversing order only adds to it
            total = full + turn[2 + interior]
        else:
            pivot = first + offset
            near, near_turns = self._legs(first, pivot)
            far, far_turns = self._legs(pivot, last)
            total = full + min(near + turn[4 + interior + near_turns],
                               far + turn[4 + interior + far_turns])
        return total / self._scale

    def sweep_order(self, arc_start: int, arc_length: int,
                    anchor: int) -> tuple[float, bool]:
        """:meth:`arc_cost` of the arc and whether the near-end-first
        order (the first sequence of :func:`_arc_sequences`) achieves it.

        Both orders are timed as floats and ties go to the near end, as
        ``min`` over the two timed sequences would pick. An anchor at the
        start of its arc sweeps one way near end first, one at the end
        one way far end first.
        """
        size = self.size
        first = arc_start % size
        span = arc_length - 1
        offset = (anchor - arc_start) % size
        if offset in (0, span):
            return self.sweep(first, span), offset == 0
        last = first + span
        pivot = first + offset
        full, interior = self._legs(first, last)
        near, near_turns = self._legs(first, pivot)
        far, far_turns = self._legs(pivot, last)
        turn, scale = self._turn, self._scale
        t_near = (full + near + turn[4 + interior + near_turns]) / scale
        t_far = (full + far + turn[4 + interior + far_turns]) / scale
        return (t_near, True) if t_near <= t_far else (t_far, False)


def _greedy_cuts(
    model: LoopCostModel, anchors: list[int], budget: float
) -> tuple[list[int] | None, float]:
    """Cut positions keeping every arc within ``budget``, or None; also
    the least arc cost above ``budget`` that the sweep evaluated.

    ``anchors`` are ascending virtual indices within one period; cut
    ``i`` is the last node of the arc holding ``anchors[i]``. Every cut
    of the first gap is tried, so that gap should be the shortest. For
    each, the later arcs are extended as far as the budget allows (arc
    cost never decreases as an arc grows) and the last arc must close
    the loop within budget. Those greedy cuts never decrease as the
    first cut moves right, so each gap keeps a pointer that gallops
    forward from where it stopped.

    Every decision is a comparison of an evaluated cost with the budget,
    so any budget below the returned cost repeats the sweep exactly:
    when the sweep fails, no partition's makespan is below that cost.
    """
    k = len(anchors)
    size = model.size
    cost = model.arc_cost
    over = math.inf
    reach = [a - 1 for a in anchors]  # reach[i] >= anchors[i]: a cut that fits
    limit = anchors[1:] + [anchors[0] + size]
    for c0 in range(anchors[0], limit[0]):
        prev = c0
        for i in range(1, k):
            start, anchor = prev + 1, anchors[i]
            lo, hi = reach[i], limit[i] - 1
            if lo < anchor:
                t = cost(start, anchor - start + 1, anchor)
                if t > budget:
                    over = min(over, t)
                    break
                lo = anchor
            step = 1
            while lo < hi:  # gallop until a cut overshoots the budget
                probe = min(lo + step, hi)
                t = cost(start, probe - start + 1, anchor)
                if t > budget:
                    over = min(over, t)
                    hi = probe - 1
                    break
                lo = probe
                step *= 2
            while lo < hi:  # then bisect below the overshoot
                mid = (lo + hi + 1) // 2
                t = cost(start, mid - start + 1, anchor)
                if t > budget:
                    over = min(over, t)
                    hi = mid - 1
                else:
                    lo = mid
            if lo == reach[i]:
                # same cut as when this gap was last reached: the later
                # arcs repeat, so they fail again or the closing arc,
                # now longer, does
                break
            reach[i] = prev = lo
        else:
            t = cost(prev + 1, c0 + size - prev, anchors[0] + size)
            if t <= budget:
                return [c0] + reach[1:], over
            over = min(over, t)
    return None, over


def _cut_makespan(model: LoopCostModel, anchors: list[int],
                  cuts: list[int]) -> float:
    size = model.size
    k = len(anchors)
    worst = 0.0
    for i in range(k):
        start = cuts[i - 1] + 1
        end = cuts[i]
        length = (end - start) % size + 1
        worst = max(worst, model.arc_cost(start % size, length, anchors[i]))
    return worst


def balance_partition(
    loop: CoverageLoop, starts: list[RobotStart], params: RobotParams
) -> CoveragePlan:
    """Choose one cut per inter-anchor gap minimizing the maximum
    arc cost, then build per-robot traversals."""
    if not starts:
        raise ValueError("at least one robot start is required")
    size = len(loop)
    ordered = sorted(starts, key=lambda s: s.anchored)
    anchors = [s.anchored for s in ordered]
    if len(set(anchors)) != len(anchors):
        raise ValueError("robot anchors must be distinct loop indices")

    k = len(anchors)
    if k == 1:
        arcs = [(anchors[0], size)]
    else:
        model = LoopCostModel(loop, params)
        # the greedy sweep scans the first gap: make it the shortest
        gaps = [(anchors[(i + 1) % k] - anchors[i]) % size for i in range(k)]
        r = gaps.index(min(gaps))
        ordered = ordered[r:] + ordered[:r]
        anchors = anchors[r:] + [a + size for a in anchors[:r]]
        # upper bound: every arc runs from its anchor to just before the next
        cuts = [a - 1 for a in anchors[1:]] + [anchors[0] + size - 1]
        ub = _cut_makespan(model, anchors, cuts)
        lb, step = 0.0, 0.0
        # A failed probe sweeps the whole first gap, a feasible one mostly
        # stops early, so probe below ub by twice the last gain (just below
        # ub after a failure) but never below the midpoint of the bounds.
        while lb < ub:
            budget = min(max(ub - step, (lb + ub) / 2), math.nextafter(ub, 0))
            found, over = _greedy_cuts(model, anchors, budget)
            if found is None:
                lb, step = over, 0.0
            else:
                last = ub
                cuts, ub = found, _cut_makespan(model, anchors, found)
                step = 2 * (last - ub)
        arcs = [
            ((cuts[i - 1] + 1) % size, (cuts[i] - cuts[i - 1] - 1) % size + 1)
            for i in range(k)
        ]

    assignments = []
    for (arc_start, arc_length), robot in zip(arcs, ordered):
        near, far = _arc_sequences(loop, arc_start, arc_length, robot.anchored)
        if k == 1:
            # the whole loop one way from the anchor; reversing only adds
            seq = near
            twists = extract_twists(seq)
            t = path_time(twists, params, loop.resolution_d)
        else:
            t, near_first = model.sweep_order(arc_start, arc_length,
                                              robot.anchored)
            seq = near if near_first else far
            twists = extract_twists(seq)
        assignments.append(
            RobotAssignment(
                robot.robot_id, robot.anchored, arc_start, arc_length,
                tuple(seq), twists, t,
            )
        )
    assignments.sort(key=lambda r: r.robot_id)
    return CoveragePlan(loop, tuple(assignments))
