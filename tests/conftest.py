import random

import pytest

from turncover.brick_tiling import BrickSet
from turncover.grid_map import SpanningGraph
from turncover.tree_builder import DOWN, LEFT, RIGHT, UP, SpanningTree

Edge = tuple[tuple[int, int], tuple[int, int]]


def normalize_edge(a, b) -> Edge:
    """Canonical undirected edge: the lexicographically smaller end first."""
    return (a, b) if a <= b else (b, a)


def span_edges(span: SpanningGraph) -> list[Edge]:
    """All undirected edges of the spanning graph, sorted."""
    nodes = span.nodes
    out = [((x, y), nb) for x, y in nodes
           for nb in ((x + 1, y), (x, y + 1)) if nb in nodes]
    out.sort()
    return out


def span_of(width, height, nodes) -> SpanningGraph:
    """The spanning graph of the ``(x, y)`` mega cells ``nodes`` on a
    ``width`` x ``height`` grid."""
    free = bytearray(width * height)
    for x, y in nodes:
        assert 0 <= x < width and 0 <= y < height, (
            f"node {(x, y)} lies outside the {width}x{height} grid")
        free[x * height + y] = 1
    return SpanningGraph(width, height, bytes(free))


def bricks_of(bricks, height) -> BrickSet:
    """The brick set of ``(x, y)`` bricks, each cell kept as its node id
    ``x * height + y`` in the brick's order."""
    return BrickSet(tuple(tuple(x * height + y for x, y in brick)
                          for brick in bricks), height)


def runs_of(cells, rows) -> tuple[range, ...]:
    """The id runs of the ``(x, y)`` unit cells ``cells``, a loop or a
    sweep: each cell as its id ``x * rows + y``, cut where the step to
    the next cell changes (the last cell's step is the one back to the
    first), each run a ``range`` with that step. ``CoverageLoop`` and
    ``RobotAssignment`` are built from coordinates only through this."""
    ids = [x * rows + y for x, y in cells]
    assert all(0 <= y < rows for _, y in cells)
    steps = [b - a for a, b in zip(ids, ids[1:] + ids[:1])]
    runs = []
    for i, step in enumerate(steps):
        if runs and step == steps[i - 1] and step:
            run = runs[-1]
            runs[-1] = range(run.start, run.stop + step, step)
        else:
            runs.append(range(ids[i], ids[i] + (step or 1), step or 1))
    return tuple(runs)


def make_tree(nodes, edges) -> SpanningTree:
    """A tree from coordinate edges between unit-step neighbours, laid
    out on the smallest grid holding its nodes."""
    nodes = frozenset(nodes)
    height = 1 + max(y for _, y in nodes)
    width = 1 + max(x for x, _ in nodes)
    masks = bytearray(width * height)
    for a, b in edges:
        (ax, ay), (bx, by) = normalize_edge(a, b)
        assert (bx - ax) + (by - ay) == 1 and ax <= bx and ay <= by
        right = bx > ax
        masks[ax * height + ay] |= RIGHT if right else DOWN
        masks[bx * height + by] |= LEFT if right else UP
    return SpanningTree(span_of(width, height, nodes), masks)


def make_span(width, height, obstacles=()):
    blocked = set(obstacles)
    return span_of(width, height, [(x, y) for x in range(width)
                                   for y in range(height)
                                   if (x, y) not in blocked])


def random_connected_span(rng: random.Random, max_dim=5, max_cells=16):
    """Random connected spanning graph grown cell by cell."""
    w = rng.randint(1, max_dim)
    h = rng.randint(1, max_dim)
    target = rng.randint(1, min(w * h, max_cells))
    start = (rng.randrange(w), rng.randrange(h))
    cells = {start}
    frontier = {start}
    while len(cells) < target:
        base = rng.choice(sorted(frontier))
        x, y = base
        options = [
            (nx, ny)
            for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
            if 0 <= nx < w and 0 <= ny < h and (nx, ny) not in cells
        ]
        if not options:
            frontier.discard(base)
            if not frontier:
                break
            continue
        new = rng.choice(options)
        cells.add(new)
        frontier.add(new)
    return span_of(w, h, cells)


@pytest.fixture
def rng():
    return random.Random(1234)
