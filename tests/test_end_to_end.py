"""One differential test through ``pipeline.plan``: every stage's oracle
checked on the same input.

Random maps up to 12x12 mega cells, some split into several components
and some with single unit cells blocked, are planned for 1 to 6 robots,
spread evenly or pinned to drawn cells. The test first works out from
coordinates alone which component a plan must cover, or that the input
must be rejected; a rejection must then be a ``ValueError``, the type of
every documented planning error. A plan is checked against the brute
force oracles: loop coverage, brick count, tree turns for all three tree
methods, the arc partition, every robot time and the makespan.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from turncover import balance, pipeline
from turncover.balance import LoopCostModel
from turncover.brick_tiling import build_segment_graph
from turncover.coverage_path import RobotParams, circumnavigate
from turncover.grid_map import GridMap, coverage_nodes_of
from turncover.tree_builder import tree_turns

from oracles import bottleneck_partition, hopcroft_karp, loop_turn_count

PARAMS = RobotParams()


def components(grid):
    """The 4-connected components of the fully free 2x2 blocks, found on
    coordinate sets."""
    todo = {(x, y) for x in range(grid.width // 2)
            for y in range(grid.height // 2)
            if all(grid.is_free(2 * x + dx, 2 * y + dy)
                   for dx in (0, 1) for dy in (0, 1))}
    found = []
    while todo:
        component = {min(todo)}
        frontier = list(component)
        for x, y in frontier:  # grows while it is read
            for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nb in todo and nb not in component:
                    component.add(nb)
                    frontier.append(nb)
        todo -= component
        found.append(frozenset(component))
    return found


@st.composite
def plan_inputs(draw):
    """A map of mega cells blocked at a drawn ratio, sometimes with a
    few unit cells blocked on top, a robot count, and either no starts
    or one unit cell per robot, mostly drawn from one component's cells
    and otherwise from anywhere on the map."""
    mw, mh = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    ratio = draw(st.floats(0.0, 0.3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    blocked = {(x, y) for x in range(mw) for y in range(mh)
               if rng.random() < ratio}
    units = coverage_nodes_of(blocked)
    units |= {(rng.randrange(2 * mw), rng.randrange(2 * mh))
              for _ in range(draw(st.sampled_from((0, 0, 0, 1, 3))))}
    cells = tuple((x, y) in units for y in range(2 * mh) for x in range(2 * mw))
    grid = GridMap(2 * mw, 2 * mh, cells)
    k = draw(st.integers(1, 6))
    mode = draw(st.sampled_from(("spread", "pinned", "pinned", "anywhere")))
    found = components(grid)
    if mode == "spread" or (mode == "pinned" and not found):
        return grid, k, None
    if mode == "pinned":
        pool = sorted(coverage_nodes_of(draw(st.sampled_from(found))))
        cell = st.sampled_from(pool)
    else:
        cell = st.tuples(st.integers(0, 2 * mw - 1), st.integers(0, 2 * mh - 1))
    return grid, k, draw(st.lists(cell, min_size=k, max_size=k))


def expected_component(grid, k, starts):
    """The mega cells the plan must cover, from coordinates alone, or
    None when the input must be rejected."""
    found = components(grid)
    if starts:
        homes = {(x // 2, y // 2) for x, y in starts}
        owning = [c for c in found if homes & c]
        if not homes <= frozenset().union(*found) or len(owning) != 1:
            return None
        component = owning[0]
    elif len(found) == 1:
        component = found[0]
    else:
        return None
    return component if k <= 4 * len(component) else None


def check_plan(k, result):
    span, loop = result.span, result.loop
    nodes = loop.nodes
    size = len(nodes)
    # the loop visits each unit cell of the span once, in unit steps, and
    # closes
    assert size == 4 * len(span.nodes)
    assert set(nodes) == coverage_nodes_of(span.nodes)
    for (ax, ay), (bx, by) in zip(nodes, nodes[1:] + nodes[:1]):
        assert abs(ax - bx) + abs(ay - by) == 1

    # R = S - T, T the size of a maximum independent set of the segments
    graph = build_segment_graph(span)
    assert result.brick_count == len(span.nodes) - (
        len(graph.segments) - len(hopcroft_karp(graph)))

    # every tree method's turn count is the turn count of its loop
    assert result.tree_turns == loop_turn_count(loop)
    start = nodes[0]
    for method in pipeline.TREE_METHODS:
        tree, _ = pipeline.build_tree(span, method, 0)
        assert tree_turns(tree) == loop_turn_count(
            circumnavigate(tree, start, loop.resolution_d))

    # the arcs partition the loop, and each robot sweeps its own arc
    robots = result.plan.robots
    assert [r.robot_id for r in robots] == list(range(k))
    arcs = sorted(robots, key=lambda r: r.arc_start)
    assert sum(r.arc_length for r in arcs) == size
    for a, b in zip(arcs, arcs[1:] + arcs[:1]):
        assert (a.arc_start + a.arc_length) % size == b.arc_start
    for r in robots:
        arc = {nodes[(r.arc_start + i) % size] for i in range(r.arc_length)}
        assert len(r.sequence) >= r.arc_length and set(r.sequence) == arc
        assert r.sequence[0] == nodes[r.anchored]
        assert r.time == balance.arc_cost(loop, r.arc_start, r.arc_length,
                                          r.anchored, PARAMS)

    # the makespan is the optimum over every cut placement
    anchors = [r.anchored for r in robots]
    assert result.plan.makespan == bottleneck_partition(
        LoopCostModel(loop, PARAMS), anchors)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(plan_inputs())
def test_plan_matches_every_oracle(case):
    grid, k, starts = case
    component = expected_component(grid, k, starts)
    try:
        result = pipeline.plan(grid, k=k, starts=starts, params=PARAMS)
    except ValueError:
        assert component is None
        return
    assert component is not None
    assert result.span.nodes == component
    check_plan(k, result)
