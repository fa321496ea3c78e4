"""Min-max partition of the circumnavigation loop among k robots.

Robot ``i`` starts at loop index ``starts[i]``, its anchor, and owns
one contiguous arc of the loop containing it. An arc is covered by
sweeping from the anchor to one end, reversing, and sweeping to the
other end; its cost is the cheaper of the two sweep orders under the
turn-aware time model, evaluated exactly by :class:`LoopCostModel`.
The cut points between consecutive anchors come from a search on the
makespan in which each probe is one greedy feasibility sweep. A
feasible probe lowers the upper bound to the makespan it achieved; an
infeasible one raises the lower bound to the least arc cost it saw
above its budget. The search ends when the bounds meet, so the result
is the exact optimum, with no tolerance.

Feasibility is monotone in the budget: a first cut that fails at one
budget fails at every lower one. So a feasible probe lists every first
cut it could complete, its survivors, and the next probe tries only
those, as in the separator-index bounding of Pinar and Aykanat (JPDC
2004) on Nicol's probe search (JPDC 1994). Only the first probe scans the
whole first gap; a failed probe costs one short chain per survivor.

The sweep prices arcs without a method call per arc: each visit to a
gap fixes the arc's start and anchor, so the head terms of its leg sums
are taken once per visit, and each probed end adds one shared tail (see
:class:`LoopCostModel`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from functools import cached_property
from itertools import accumulate
from operator import sub

from .coverage_path import (
    CoverageLoop,
    RobotParams,
    cells,
    extract_twists,
    leg_time,
    path_time,
    run_twists,
    turn_term,
)
from .grid_map import Coord, Record


class RobotAssignment(Record):
    """One robot's arc of the loop and its sweep: ``runs`` are the id
    runs (as in :class:`CoverageLoop`, ``rows`` unit rows) of the
    concrete traversal, reversal included; ``sequence`` is their
    coordinate view, derived on first access; ``twists`` counts the
    sweep's twists, whose indices :func:`run_twists` reads off ``runs``."""

    robot_id: int
    anchored: int
    arc_start: int  # loop index of first arc node
    arc_length: int
    runs: tuple[range, ...]
    rows: int
    twists: int
    time: float

    @cached_property
    def sequence(self) -> tuple[Coord, ...]:
        return cells(self.runs, self.rows)


class CoveragePlan(Record):
    robots: tuple[RobotAssignment, ...]

    @property
    def makespan(self) -> float:
        return max(r.time for r in self.robots)

    def min_time(self) -> float:
        return min(r.time for r in self.robots)


def anchor_starts(loop: CoverageLoop, requested: list[Coord]) -> list[int]:
    """Robot ``i``'s anchor: the loop index of the node nearest to the
    cell ``requested[i]``.

    Ties go to the lowest loop index; a collision sends the later robot
    to the next free index clockwise (against the loop's
    counterclockwise storage order).
    """
    size = len(loop)
    if len(requested) > size:
        raise ValueError(f"{len(requested)} robots exceed loop length {size}")
    taken: set[int] = set()
    starts = []
    for cell in requested:
        best = loop.nearest(cell)
        while best in taken:
            best = (best - 1) % size
        taken.add(best)
        starts.append(best)
    return starts


def _arc_sequence(
    loop: CoverageLoop, arc_start: int, arc_length: int, anchor: int,
    near_first: bool,
) -> tuple[range, ...]:
    """Id runs of one sweep strategy: near start end first, or far end
    first. They are the loop's runs, cut at the arc's ends and at the
    anchor, each run the sweep walks back reversed (``range[::-1]``)."""
    size = len(loop)
    if arc_length < 1 or arc_length > size:
        raise ValueError(f"bad arc length {arc_length}")
    first = arc_start % size
    p = (anchor - first) % size
    if not (0 <= anchor < size and p < arc_length):
        raise ValueError(f"anchor {anchor} outside arc")
    if near_first:  # back to the arc's first node, then forward
        ahead = loop.arc(first + 1, arc_length - 1)
        back = loop.arc(first, p + 1)
        return (*[run[::-1] for run in reversed(back)], *ahead)
    ahead = loop.arc(first + p, arc_length - p)
    back = loop.arc(first, arc_length - 1)
    return (*ahead, *[run[::-1] for run in reversed(back)])


def arc_cost(
    loop: CoverageLoop, arc_start: int, arc_length: int, anchor: int,
    params: RobotParams,
) -> float:
    """Cheaper of the two anchored sweep strategies, timed on the
    concrete node sequence (reversal twists included)."""
    return min(
        path_time(extract_twists(cells(
            _arc_sequence(loop, arc_start, arc_length, anchor, near_first),
            loop.rows)), params, loop.resolution_d)
        for near_first in (True, False)
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

    Legs are summed one way only, split at the turns: over virtual
    indices ``first < last`` with ``lo`` turning positions up to
    ``first`` and ``hi`` up to ``last - 1``, the sum is a head term
    ``leg[turns[lo] - first] - P[lo]`` of the first index plus a tail
    ``P[hi - 1] + leg[last - turns[hi - 1]]`` of the last (``P`` the
    prefix sums of whole runs), or the single ``leg[last - first]`` when
    ``hi == lo``. :meth:`evaluator` takes the head terms once per arc
    start and anchor, so each probed end costs one rank lookup and one
    tail, shared by the whole arc and its far side.
    """

    def __init__(self, loop: CoverageLoop, params: RobotParams):
        self.size = size = len(loop)
        d = loop.resolution_d
        turn_idx = list(loop.turns)
        turning = bytearray(size)
        for t in turn_idx:
            turning[t] = 1
        # two unrolled periods of turning positions; _rank[x] counts those <= x
        self._turns2 = doubled = turn_idx + [t + size for t in turn_idx]
        self._rank = list(accumulate(turning * 2))
        runs = list(map(sub, doubled[1:], doubled))
        legs = [leg_time(n * d, params) for n in range(max(runs) + 1)]
        # turn_term(n) for every n in its operation order, bit for bit;
        # the terms grow with n, so its finiteness check on the largest
        # one covers them all
        top = 2 * len(turn_idx) + 4
        turn_term(top, params)
        four_omega = 4 * params.omega
        turns = [max(0, n - 2) * math.pi / four_omega for n in range(top + 1)]
        ratios = [v.as_integer_ratio() for v in legs + turns]
        self._scale = scale = max(den for _, den in ratios)
        exact = [num * (scale // den) for num, den in ratios]
        self._leg, self._turn = exact[:len(legs)], exact[len(legs):]
        self._leg_prefix = [0, *accumulate(self._leg[run] for run in runs)]
        self._aim, self._cost = self.evaluator()

    def evaluator(self) -> tuple[
        Callable[[int, int], None],
        Callable[..., float | tuple[float, float]],
    ]:
        """A pair ``(aim, cost)`` of functions sharing one arc's terms.

        ``aim(start, anchor)`` fixes the arc's first node and its anchor,
        virtual indices with ``start <= anchor < start + size`` and
        ``start < 2 * size``. ``cost(span)`` is then the cost of the arc
        of ``span + 1`` nodes from ``start``, for any span reaching the
        anchor: the cheaper sweep order, or the one-way sweep when the
        anchor is at either end. For an anchor short of the arc's end,
        ``cost(span, True)`` gives the times of both orders instead, near
        end first and far end first; an anchor at the start makes the
        first of them the one-way sweep.
        """
        size = self.size
        rank, turns, leg = self._rank, self._turns2, self._leg
        prefix, turn, scale = self._leg_prefix, self._turn, self._scale
        tabled = len(turns)
        first = pivot = lo = mid = head = far_head = near = near_base = 0
        one_way = 0.0

        def aim(start: int, anchor: int) -> None:
            nonlocal first, pivot, lo, mid, head, far_head, near, near_base
            nonlocal one_way
            if start >= size:
                start -= size
                anchor -= size
            first, pivot = start, anchor
            lo = rank[start]
            head = leg[turns[lo] - start] - prefix[lo]
            if anchor == start:
                # the near-end-first order is the one-way sweep
                mid, far_head, near, near_base, one_way = lo, head, 0, 2, 0.0
                return
            hi = rank[anchor - 1]
            near = (head + prefix[hi - 1] + leg[anchor - turns[hi - 1]]
                    if hi > lo else leg[anchor - start])
            near_base = 4 + hi - lo
            one_way = (near + turn[2 + hi - lo]) / scale
            mid = rank[anchor]
            # past the last tabled turn no far side reaches another one
            far_head = (leg[turns[mid] - anchor] - prefix[mid]
                        if mid < tabled else 0)

        def cost(span: int,
                 orders: bool = False) -> float | tuple[float, float]:
            last = first + span
            if last == pivot:  # before any rank lookup: span 0 lands here
                return one_way
            hi = rank[last - 1]
            if hi == lo:
                full, far = leg[span], leg[last - pivot]
            else:
                tail = prefix[hi - 1] + leg[last - turns[hi - 1]]
                full = head + tail
                far = far_head + tail if hi > mid else leg[last - pivot]
            interior = hi - lo
            a = near + turn[near_base + interior]
            b = far + turn[4 + interior + hi - mid]
            if orders:
                return (full + a) / scale, (full + b) / scale
            return (full + (a if a < b else b)) / scale

        return aim, cost

    def _aim_arc(self, arc_start: int, arc_length: int,
                 anchor: int) -> tuple[int, int]:
        """Aim the model's own evaluator at a cyclic arc; its span and
        the anchor's offset in it."""
        size = self.size
        first = arc_start % size
        offset = (anchor - arc_start) % size
        if not 0 <= offset < arc_length:
            raise ValueError(f"anchor {anchor} outside arc")
        self._aim(first, first + offset)
        return arc_length - 1, offset

    def arc_cost(self, arc_start: int, arc_length: int, anchor: int) -> float:
        """Equivalent of module-level :func:`arc_cost` on cyclic indices."""
        span, _ = self._aim_arc(arc_start, arc_length, anchor)
        return self._cost(span)

    def sweep_order(self, arc_start: int, arc_length: int,
                    anchor: int) -> tuple[float, bool]:
        """:meth:`arc_cost` of the arc and whether the near-end-first
        order (:func:`_arc_sequence` with ``near_first``) achieves it.

        Both orders are timed as floats and ties go to the near end, as
        ``min`` over the two timed sequences would pick. An anchor at the
        start of its arc sweeps one way near end first, one at the end
        one way far end first.
        """
        span, offset = self._aim_arc(arc_start, arc_length, anchor)
        if offset == span:
            return self._cost(span), span == 0
        t_near, t_far = self._cost(span, True)
        return (t_near, True) if t_near <= t_far else (t_far, False)


def _greedy_cuts(
    model: LoopCostModel, anchors: list[int], budget: float,
    firsts: Iterable[int],
) -> tuple[list[int] | None, float, list[int]]:
    """Cut positions keeping every arc within ``budget``, or None; the
    least arc cost above ``budget`` that the sweep evaluated; and the
    survivors, every first cut of ``firsts`` that cut positions within
    ``budget`` complete.

    ``anchors`` are ascending virtual indices within one period; cut
    ``i`` is the last node of the arc holding ``anchors[i]``. ``firsts``
    are ascending cuts of the first gap, which should be the shortest.
    For each, the later arcs are extended as far as the budget allows
    (arc cost never decreases as an arc grows) and the last arc must
    close the loop within budget. Those greedy cuts never decrease as
    the first cut moves right, so each gap keeps a pointer that gallops
    forward from where it stopped. One visit to a gap fixes the arc's
    start and anchor, so the model's evaluator is aimed once per visit
    and then prices each probed end. The returned cuts are those of the
    first survivor.

    A gap whose greedy cut is the one it had when last reached repeats
    that chain's later arcs. If that chain broke off or its closing arc
    went over budget, this one fails too, its closing arc being longer.
    If it closed within budget, the later arcs fit again and only the
    closing arc, now longer, is priced again.

    Every decision is a comparison of an evaluated cost with the budget,
    so any budget below the returned cost repeats the sweep exactly:
    when the sweep fails, no partition with a first cut of ``firsts`` has
    a makespan below that cost.
    """
    k = len(anchors)
    size = model.size
    aim, cost = model.evaluator()
    over = math.inf
    found = None
    survivors = []
    reach = [a - 1 for a in anchors]  # reach[i] >= anchors[i]: a cut that fits
    limit = anchors[1:] + [anchors[0] + size]
    # the chain through reach[i] closed within budget for every i >= fits
    fits = k
    for c0 in firsts:
        prev, i = c0, 1
        while i < k:
            start, anchor = prev + 1, anchors[i]
            aim(start, anchor)
            lo, hi = reach[i], limit[i] - 1
            if lo < anchor:
                t = cost(anchor - start)
                if t > budget:
                    if t < over:
                        over = t
                    break
                lo = anchor
            step = 1
            while lo < hi:  # gallop until a cut overshoots the budget
                probe = lo + step
                if probe > hi:
                    probe = hi
                t = cost(probe - start)
                if t > budget:
                    if t < over:
                        over = t
                    hi = probe - 1
                    break
                lo = probe
                step *= 2
            while lo < hi:  # then bisect below the overshoot
                mid = (lo + hi + 1) // 2
                t = cost(mid - start)
                if t > budget:
                    if t < over:
                        over = t
                    hi = mid - 1
                else:
                    lo = mid
            if lo == reach[i]:
                # same cut as when this gap was last reached: the later
                # arcs repeat, so go straight to the closing arc if they
                # fit then, or fail
                if i >= fits:
                    prev, i = reach[-1], k
                break
            reach[i] = prev = lo
            i += 1
        if i < k:  # the chain broke off at gap i
            if i > fits:
                fits = i
            continue
        t = model.arc_cost(prev + 1, c0 + size - prev, anchors[0] + size)
        if t <= budget:
            if found is None:
                found = [c0] + reach[1:]
            survivors.append(c0)
            fits = 1
        else:
            if t < over:
                over = t
            fits = k
    return found, over, survivors


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
    loop: CoverageLoop, starts: list[int], params: RobotParams
) -> CoveragePlan:
    """Choose one cut per inter-anchor gap minimizing the maximum
    arc cost, then build per-robot traversals: robot ``i`` is anchored
    at loop index ``starts[i]`` and is ``robots[i]`` of the plan."""
    if not starts:
        raise ValueError("at least one robot start is required")
    size = len(loop)
    for rid, anchor in enumerate(starts):
        if not 0 <= anchor < size:
            raise ValueError(
                f"robot {rid}: anchor {anchor} is not a loop index "
                f"(the loop has {size} nodes)")
    if len(set(starts)) != len(starts):
        raise ValueError("robot anchors must be distinct loop indices")

    k = len(starts)
    rows = loop.rows
    if k == 1:
        # the whole loop one way from the anchor; reversing only adds.
        # Its twists are read off the sweep's runs by run_twists, as
        # every robot's are, and path_time prices them without
        # building a LoopCostModel (see ROADMAP, rejected
        # simplifications)
        anchor = starts[0]
        runs = loop.arc(anchor, size)
        twists = run_twists(runs)
        t = path_time(twists, params, loop.resolution_d)
        return CoveragePlan((RobotAssignment(
            0, anchor, anchor, size, runs, rows, len(twists), t),))

    model = LoopCostModel(loop, params)
    order = sorted(range(k), key=starts.__getitem__)  # robot ids by anchor
    anchors = [starts[rid] for rid in order]
    # the greedy sweep scans the first gap: make it the shortest
    gaps = [(anchors[(i + 1) % k] - anchors[i]) % size for i in range(k)]
    r = gaps.index(min(gaps))
    order = order[r:] + order[:r]
    anchors = anchors[r:] + [a + size for a in anchors[:r]]
    # upper bound: every arc runs from its anchor to just before the next
    cuts = [a - 1 for a in anchors[1:]] + [anchors[0] + size - 1]
    ub = _cut_makespan(model, anchors, cuts)
    lb, step = 0.0, 0.0
    firsts: Iterable[int] = range(anchors[0], anchors[1])
    # Probe below ub by twice the last gain (just below ub after a
    # failure) but never below the midpoint of the bounds. A first cut
    # that fails at one budget fails at every lower one, so each probe
    # tries only the survivors of the last feasible one.
    while lb < ub:
        budget = min(max(ub - step, (lb + ub) / 2), math.nextafter(ub, 0))
        found, over, survivors = _greedy_cuts(model, anchors, budget, firsts)
        if found is None:
            # The first cuts left out failed at a budget of at least ub,
            # and over <= ub: at budget ub the sweep would succeed with
            # the first cut of the last feasible probe, so it cannot
            # repeat this one.
            lb, step = over, 0.0
        else:
            last = ub
            cuts, ub = found, _cut_makespan(model, anchors, found)
            step = 2 * (last - ub)
            firsts = survivors

    assignments = [None] * k
    for i, rid in enumerate(order):
        anchor = starts[rid]
        arc_start = (cuts[i - 1] + 1) % size
        arc_length = (cuts[i] - cuts[i - 1] - 1) % size + 1
        t, near_first = model.sweep_order(arc_start, arc_length, anchor)
        runs = _arc_sequence(loop, arc_start, arc_length, anchor, near_first)
        assignments[rid] = RobotAssignment(
            rid, anchor, arc_start, arc_length, runs, rows,
            len(run_twists(runs)), t)
    return CoveragePlan(tuple(assignments))
