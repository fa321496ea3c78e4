"""Output checks, run after the timed loop.

Each check returns a list of problems; an empty list means the output is
correct. The references are computed here from the generated map, apart
from the slow module-level ``balance.arc_cost``, which the program keeps
as the reference for its fast cost model. scipy serves only as an
independent matching oracle and is imported only in the check phase.
"""

from __future__ import annotations

from maps import GenMap
from turncover import balance, cli
from turncover.coverage_path import RobotParams
from workloads import D, Item

PARAMS = RobotParams()  # every workload plans with the default robot


def _adjacent(a, b) -> bool:
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def _cover_cells(mega) -> set:
    return {(2 * mx + dx, 2 * my + dy) for mx, my in mega
            for dx in (0, 1) for dy in (0, 1)}


def check_plan(result, item: Item) -> list[str]:
    """Loop, arcs, anchors and robot times of one ``PlanResult``."""
    problems = []
    gen = item.gen
    if result.span.nodes != gen.mega:
        problems.append("planned component differs from the free blocks")
    loop = result.loop.nodes
    size = len(loop)
    if len(set(loop)) != size or set(loop) != _cover_cells(gen.mega):
        problems.append("loop is not a permutation of the coverage cells")
    steps = [(loop[(i + 1) % size][0] - loop[i][0],
              loop[(i + 1) % size][1] - loop[i][1]) for i in range(size)]
    if any(abs(dx) + abs(dy) != 1 for dx, dy in steps):
        problems.append("loop has consecutive nodes that are not 4-adjacent")
    turns = sum(1 for i in range(size) if steps[i - 1] != steps[i])
    if turns != result.tree_turns:
        problems.append(f"loop turns {turns} != tree turns {result.tree_turns}")

    robots = result.plan.robots
    if [r.robot_id for r in robots] != list(range(item.k)):
        problems.append("robot ids are not 0..k-1")
        return problems
    arcs = sorted(robots, key=lambda r: r.arc_start)
    if sum(r.arc_length for r in arcs) != size or any(
        (a.arc_start + a.arc_length) % size != b.arc_start
        for a, b in zip(arcs, arcs[1:] + arcs[:1])
    ):
        problems.append("robot arcs are not disjoint, contiguous and covering")
    for r in robots:
        arc = [loop[(r.arc_start + t) % size] for t in range(r.arc_length)]
        if set(r.sequence) != set(arc):
            problems.append(f"robot {r.robot_id} sequence does not cover its arc")
        if any(not _adjacent(a, b) for a, b in zip(r.sequence, r.sequence[1:])):
            problems.append(f"robot {r.robot_id} sequence jumps")
        if not r.sequence or r.sequence[0] != loop[r.anchored]:
            problems.append(f"robot {r.robot_id} does not start at its anchor")
        if item.starts:
            expected = item.starts[r.robot_id]
            ok = loop[r.anchored] == expected
        else:
            ok = r.anchored == r.robot_id * size // item.k
        if not ok:
            problems.append(f"robot {r.robot_id} anchored at the wrong node")
        reference = balance.arc_cost(result.loop, r.arc_start, r.arc_length,
                                     r.anchored, PARAMS)
        if r.time != reference:
            problems.append(
                f"robot {r.robot_id} time {r.time!r} != arc_cost {reference!r}")
    if result.plan.makespan != max(r.time for r in robots):
        problems.append("makespan is not the largest robot time")
    return problems


def check_item(item: Item, raw: object, result, record: bytes) -> list[str]:
    """Checks of what the item's own entry point returned or wrote."""
    if item.kind == "trees":
        return []
    problems = check_plan(result, item)
    if item.kind == "cli":
        if record != cli.plan_record_text(result, D).encode():
            problems.append("record file differs from the plan")
    elif item.kind == "scenario":
        report = raw
        fields = [
            (report.k, item.k), (report.brick_count, result.brick_count),
            (report.loop_length, len(result.loop)),
            (report.max_time, result.plan.makespan),
            (report.min_time, result.plan.min_time()),
            (report.turns_by_method["tmstc"], result.tree_turns),
        ]
        if any(got != want for got, want in fields):
            problems.append("run report disagrees with the plan")
    return problems


def check_trees(rows: list[dict], gen: GenMap, reports: list) -> list[str]:
    """``compare_trees`` rows against the run reports of the same map."""
    if len(rows) != 1 or rows[0].get("map") != gen.name:
        return ["compare_trees returned the wrong rows"]
    turns = {m: rows[0][m] for m in ("tmstc", "dfs", "kruskal")}
    if any(r.turns_by_method != turns for r in reports):
        return ["compare_trees turns differ from run_scenario turns"]
    return []


def oracle_bricks(mega: frozenset) -> int:
    """Minimum brick count S - (|segments| - |maximum matching|), with the
    conflict graph built here and the matching size taken from scipy as
    a unit-capacity maximum flow. (scipy's ``maximum_bipartite_matching``
    gives the same size but took 34 s on one mega-120 map.)"""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    horizontal, vertical = {}, {}  # lattice endpoint -> segment ids
    n_h = n_v = 0
    for x, y in sorted(mega):
        if (x, y + 1) in mega:  # border below (x, y)
            for pt in ((x, y + 1), (x + 1, y + 1)):
                horizontal.setdefault(pt, []).append(n_h)
            n_h += 1
        if (x + 1, y) in mega:  # border right of (x, y)
            for pt in ((x + 1, y), (x + 1, y + 1)):
                vertical.setdefault(pt, []).append(n_v)
            n_v += 1
    pairs = sorted({(h, v) for pt, hs in horizontal.items()
                    for h in hs for v in vertical.get(pt, ())})
    # source -> horizontal -> vertical -> sink, every capacity 1
    n = n_h + n_v + 2
    source, sink = n - 2, n - 1
    tails = [source] * n_h + [h for h, _ in pairs] + [n_h + v for v in range(n_v)]
    heads = list(range(n_h)) + [n_h + v for _, v in pairs] + [sink] * n_v
    network = csr_matrix(([1] * len(tails), (tails, heads)), shape=(n, n))
    matched = maximum_flow(network, source, sink).flow_value
    return len(mega) - (n_h + n_v - matched)


def check_bricks(result) -> list[str]:
    """The tiling is a set of straight bricks partitioning the component,
    and its size is the oracle's minimum."""
    cells = [c for brick in result.bricks.bricks for c in brick]
    if len(cells) != len(set(cells)) or set(cells) != result.span.nodes:
        return ["bricks do not partition the component"]
    for brick in result.bricks.bricks:
        xs = sorted({c[0] for c in brick})
        ys = sorted({c[1] for c in brick})
        if not ((len(xs) == 1 and ys == list(range(ys[0], ys[0] + len(brick))))
                or (len(ys) == 1
                    and xs == list(range(xs[0], xs[0] + len(brick))))):
            return ["a brick is not a straight run of cells"]
    expected = oracle_bricks(result.span.nodes)
    if result.brick_count != expected:
        return [f"brick count {result.brick_count} != oracle {expected}"]
    return []
