"""Occupancy grid parsing and discretization into the spanning graph.

The planner works on the spanning graph of mega cells (2d x 2d blocks
of four unit cells, d being the tool width). A mega cell is a spanning
node only when all four of its unit cells are free, so every spanning
node stands for exactly four coverage nodes (``coverage_nodes_of``).

Coordinates are (x=column, y=row) with the origin at the top-left;
serialization is row-major. Inside, the geometry stages number mega
cells by flat id ``x * H + y``, H being the mega height: ascending ids
are ascending coordinate tuples, the neighbours of id ``i`` are
``i +- 1`` (same column) and ``i +- H`` (same row), and per-node state
lives in flat lists and bytearrays instead of tuple-keyed dicts.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import compress, repeat

Coord = tuple[int, int]
Edge = tuple[Coord, Coord]

MOVINGAI_FREE = frozenset(".G")
MOVINGAI_OCCUPIED = frozenset("@OTSW")
GRID01_FREE = frozenset("0")
GRID01_OCCUPIED = frozenset("1")
_NOT = bytes.maketrans(b"\0\1", b"\1\0")  # a 0/1 flag -> its negation


class MapFormatError(ValueError):
    """Raised for malformed map files."""


class DisconnectedGraphError(ValueError):
    """Raised when an operation needs a single connected component."""


def find(parent: list[int], node: int) -> int:
    """Union-find root of node id ``node`` in ``parent``, a list by node
    id, halving the path on the way up."""
    while parent[node] != node:
        parent[node] = parent[parent[node]]
        node = parent[node]
    return node


def flood_fill(todo: bytearray, height: int, root: int) -> list[int]:
    """Ids 4-connected to the flagged id ``root`` through the ids flagged
    in ``todo``, a flat layout of stride ``height``; clears their flags
    as it goes.

    The fill goes by column runs: a run is a maximal stretch of flagged
    ids in one column, found by ``find``/``rfind`` on the flags and
    cleared with one slice. The flagged ids of the neighbour columns
    beside a run start the runs it reaches."""
    n = len(todo)
    reached: list[int] = []
    runs = [_take_run(todo, height, root)]
    for lo, hi in runs:  # grows while it is read
        reached.extend(range(lo, hi))
        for a, b in ((lo - height, hi - height), (lo + height, hi + height)):
            if a < 0 or b > n:  # the neighbour column is off the grid
                continue
            j = todo.find(1, a, b)
            while j >= 0:
                run = _take_run(todo, height, j)
                runs.append(run)
                j = todo.find(1, run[1], b)
    return reached


def _take_run(todo: bytearray, height: int, i: int) -> tuple[int, int]:
    """The run ``[lo, hi)`` of flagged ids through the flagged id ``i``
    in its column, its flags cleared."""
    base = i - i % height
    lo = todo.rfind(0, base, i) + 1 or base  # rfind is -1 when no 0 precedes i
    hi = todo.find(0, i, base + height)
    if hi < 0:
        hi = base + height
    todo[lo:hi] = bytes(hi - lo)
    return lo, hi


class Record:
    """Base of the immutable records: the annotated fields of a subclass,
    in order, are its value. The constructor binds positional values,
    then keywords, to those fields, each exactly once, as a function's
    parameters are bound; a subclass defines its own ``__init__`` only
    to check or convert its values. Equality and hashing compare the
    fields between records of one class, and ``repr`` lists them; a plan
    is records all the way down, from the map to the tree, so two plans
    of one input compare and hash equal. Assignment and deletion raise
    ``AttributeError``; constructors set the fields through ``__dict__``,
    as :func:`functools.cached_property` sets its values, and they are
    read from there. Plain classes instead of frozen dataclasses,
    because ``import dataclasses`` and generating the methods cost far
    more than planning a small map."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(vars(cls).get("__annotations__", ()))

    def __init__(self, *values: object, **named: object) -> None:
        fields = self._fields
        if named or len(values) != len(fields):
            rest = fields[len(values):]  # the fields keywords must give
            if len(values) > len(fields) or named.keys() != set(rest):
                raise TypeError(
                    f"{self.__class__.__qualname__} takes each of the fields "
                    f"{', '.join(fields)} once, not {len(values)} values "
                    f"and the keywords {', '.join(named) or '(none)'}")
            values += tuple([named[key] for key in rest])
        self.__dict__.update(zip(fields, values))

    def _values(self) -> tuple:
        values = self.__dict__
        return tuple([values[name] for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class GridMap(Record):
    """Occupancy grid of unit cells: ``cells[y * width + x]`` is 1 when
    occupied, 0 when free; any sequence of 0/1 or bools is kept as bytes."""

    width: int
    height: int
    cells: bytes
    resolution_d: float

    def __init__(self, width: int, height: int, cells: Sequence[int],
                 resolution_d: float = 0.5) -> None:
        if width < 1 or height < 1:
            raise MapFormatError("map dimensions must be at least 1x1")
        if len(cells) != width * height:
            raise MapFormatError(
                f"cell count {len(cells)} does not match {width}x{height}"
            )
        try:
            cells = bytes(cells)
        except (TypeError, ValueError) as exc:
            raise MapFormatError(f"cells must be 0 or 1: {exc}") from exc
        if cells.translate(None, b"\0\1"):  # a byte other than 0 and 1
            raise MapFormatError("cells must be 0 or 1")
        if not resolution_d > 0:
            raise MapFormatError("resolution_d must be positive")
        self.__dict__.update(width=width, height=height, cells=cells,
                             resolution_d=resolution_d)

    def is_occupied(self, x: int, y: int) -> bool:
        """Cells outside the map count as occupied."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            return True
        return self.cells[y * self.width + x] == 1

    def is_free(self, x: int, y: int) -> bool:
        return not self.is_occupied(x, y)

    def free_count(self) -> int:
        return self.cells.count(0)

    def occupied_cells(self) -> list[Coord]:
        width = self.width
        return [(i % width, i // width)
                for i in compress(range(len(self.cells)), self.cells)]


class SpanningGraph(Record):
    """Grid graph of free mega cells with 4-adjacency; edge length is 2d.

    The graph is its flags: ``free[x * mega_height + y]`` is 1 for a node
    and 0 elsewhere. The node set is derived from them on first access,
    so a planned map never builds its coordinate tuples."""

    mega_width: int
    mega_height: int
    free: bytes

    @cached_property
    def nodes(self) -> frozenset[Coord]:
        """The nodes as ``(x, y)`` mega cells."""
        return frozenset(map(divmod, self.ids, repeat(self.mega_height)))

    def has_node(self, node: Coord) -> bool:
        """Whether the mega cell ``node`` is a node, read off the flags."""
        x, y = node
        height = self.mega_height
        return (0 <= x < self.mega_width and 0 <= y < height
                and self.free[x * height + y] == 1)

    @property
    def ids(self) -> list[int]:
        """Node ids ``x * mega_height + y`` ascending, which is sorted
        node order; built on each read and kept nowhere."""
        return list(compress(range(len(self.free)), self.free))

    @cached_property
    def borders(self) -> tuple[list[int], bytes]:
        """The edges in segment-id order: the id of each edge's first
        node, and one byte per edge, 0 for the edge ``(i, i + 1)`` below
        node ``i`` and 1 for the edge ``(i, i + H)`` right of it. Node
        ids ascend, and a node's edge below comes before its right one,
        which is sorted coordinate-edge order."""
        height, free, ids = self.mega_height, self.free, self.ids
        below = bytearray(free[1:] + b"\0")
        below[height - 1::height] = bytes(len(below[height - 1::height]))
        # two slots per node, below then right; an edge fills one
        filled = bytearray(2 * len(ids))
        filled[0::2] = compress(below, free)
        filled[1::2] = compress(free[height:] + bytes(height), free)
        slots = [0] * len(filled)
        slots[0::2] = slots[1::2] = ids
        return (list(compress(slots, filled)),
                bytes(compress(b"\0\1" * len(ids), filled)))


def parse_map(content: bytes | str, fmt: str, resolution_d: float = 0.5) -> GridMap:
    """Parse a map file in ``movingai`` or ``grid01`` format."""
    if isinstance(content, bytes):
        try:
            text = content.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MapFormatError(
                f"non-ASCII byte {content[exc.start]:#04x} at offset {exc.start}"
            ) from exc
    else:
        text = content
    if fmt == "movingai":
        return _parse_movingai(text, resolution_d)
    if fmt == "grid01":
        return _parse_grid01(text, resolution_d)
    raise MapFormatError(f"unknown map format: {fmt!r}")


def _parse_movingai(text: str, resolution_d: float) -> GridMap:
    lines = text.splitlines()
    if len(lines) < 4:
        raise MapFormatError("movingai header requires 4 lines")
    if lines[0].strip().split() != ["type", "octile"]:
        raise MapFormatError(f"bad movingai type line: {lines[0]!r}")
    try:
        h_key, h_val = lines[1].split()
        w_key, w_val = lines[2].split()
        height, width = int(h_val), int(w_val)
    except ValueError as exc:
        raise MapFormatError("bad movingai dimension lines") from exc
    if h_key != "height" or w_key != "width":
        raise MapFormatError("movingai header must declare height then width")
    if lines[3].strip() != "map":
        raise MapFormatError("missing 'map' marker line")
    rows = [ln for ln in lines[4:] if ln.strip() != ""]
    if len(rows) != height:
        raise MapFormatError(f"expected {height} map rows, found {len(rows)}")
    cells = _classify_rows(rows, width, MOVINGAI_FREE, MOVINGAI_OCCUPIED)
    return GridMap(width, height, cells, resolution_d)


def _parse_grid01(text: str, resolution_d: float) -> GridMap:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() != ""]
    if not lines:
        raise MapFormatError("empty map")
    declared: tuple[int, int] | None = None
    first = lines[0].split()
    if len(first) == 2 and all(tok.isdigit() for tok in first):
        declared = (int(first[0]), int(first[1]))  # height, width
        lines = lines[1:]
    if not lines:
        raise MapFormatError("grid01 map has no body rows")
    width = len(lines[0])
    cells = _classify_rows(lines, width, GRID01_FREE, GRID01_OCCUPIED)
    height = len(lines)
    if declared is not None and declared != (height, width):
        raise MapFormatError(
            f"declared {declared[0]}x{declared[1]} but body is {height}x{width}"
        )
    return GridMap(width, height, cells, resolution_d)


def _classify_rows(rows: list[str], width: int, free: frozenset[str],
                   occupied: frozenset[str]) -> bytes:
    """Row-major occupancy bytes of the glyph rows: 1 for a glyph in
    ``occupied``, 0 for one in ``free``. Rows are checked in order, each
    for its length and then for its first unknown glyph."""
    known = free | occupied
    for y, row in enumerate(rows):
        if len(row) != width:
            raise MapFormatError(f"row {y} has length {len(row)}, expected {width}")
        if not known.issuperset(row):
            glyph = next(g for g in row if g not in known)
            raise MapFormatError(f"unknown glyph {glyph!r} in row {y}")
    table = bytes(chr(b) in occupied for b in range(256))
    return "".join(rows).encode("ascii").translate(table)  # glyphs: ASCII


def build_spanning_graph(grid: GridMap) -> SpanningGraph:
    """Discretize a map into the mega-cell spanning graph.

    Odd dimensions round up; the missing right/bottom cells count as
    occupied, so those border mega cells never become nodes.

    The flags come straight from the occupancy bytes: per mega row, the
    two unit rows are ORed as integers (each byte is 0 or 1, so no bit
    carries), then the even and odd columns of that row likewise, and
    the row's flags go into the column-major layout by one slice.
    """
    width, height = grid.width, grid.height
    mega_height = (height + 1) // 2
    pairs = width // 2  # mega columns whose two unit columns exist
    cells = grid.cells
    free = bytearray(((width + 1) // 2) * mega_height)
    for my in range(height // 2):
        top = 2 * my * width
        rows = (int.from_bytes(cells[top:top + width], "big")
                | int.from_bytes(cells[top + width:top + 2 * width], "big")
                ).to_bytes(width, "big")
        blocks = (int.from_bytes(rows[0:2 * pairs:2], "big")
                  | int.from_bytes(rows[1:2 * pairs:2], "big")
                  ).to_bytes(pairs, "big")
        free[my:my + pairs * mega_height:mega_height] = blocks.translate(_NOT)
    if 1 not in free:
        raise ValueError("map has no fully free mega cell")
    return SpanningGraph((width + 1) // 2, mega_height, bytes(free))


def coverage_nodes_of(cells: Iterable[Coord]) -> frozenset[Coord]:
    """Unit cells of the given mega cells, four per mega cell."""
    return frozenset(
        (2 * mx + dx, 2 * my + dy)
        for mx, my in cells
        for dx in (0, 1)
        for dy in (0, 1)
    )


def connected_component(span: SpanningGraph, seeds: list[Coord]) -> SpanningGraph:
    """Sub-graph of the component containing every seed.

    With no seeds the graph must already be a single component. Seeds in
    different components raise ``DisconnectedGraphError`` naming them.
    One flood fill runs from the first seed, or from the least node;
    components are labelled, in the order of their least nodes, only to
    word an error.
    """
    for seed in seeds:
        if not span.has_node(seed):
            raise DisconnectedGraphError(f"seed {seed} is not a free mega cell")
    ids = span.ids
    if not ids:
        return span
    height = span.mega_height
    seed_ids = [x * height + y for x, y in seeds]
    todo = bytearray(span.free)
    comp = flood_fill(todo, height, seed_ids[0] if seeds else ids[0])
    if len(comp) == len(ids):
        return span
    if seeds and not any(todo[i] for i in seed_ids):
        # the fill cleared the component's flags: the rest stay in todo
        n = len(todo)
        flags = int.from_bytes(span.free, "big") ^ int.from_bytes(todo, "big")
        return SpanningGraph(span.mega_width, height, flags.to_bytes(n, "big"))

    label = [-1] * len(todo)
    todo = bytearray(span.free)
    count = 0
    for i in ids:
        if todo[i]:
            for j in flood_fill(todo, height, i):
                label[j] = count
            count += 1
    if not seeds:
        raise DisconnectedGraphError(
            f"map splits into {count} components and no seeds "
            "were given to pick one"
        )
    homes = {seed: label[i] for seed, i in zip(seeds, seed_ids)}
    offenders = sorted(homes.items(), key=lambda kv: kv[1])
    detail = ", ".join(f"{seed} in component {idx}" for seed, idx in offenders)
    raise DisconnectedGraphError(f"seeds span multiple components: {detail}")
