"""Seeded map generators owned by the benchmark.

They do not use ``turncover.bench.generate_random_map`` on purpose: the
program's own generator may change, and that must not move the workloads.
Every generator returns a :class:`GenMap` holding the unit-cell occupancy
plus the set of mega cells the planner is expected to cover, which the
output checks use as an independent reference.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

Coord = tuple[int, int]


@dataclass(frozen=True)
class GenMap:
    name: str
    width: int
    height: int
    occupied: frozenset[Coord]  # unit cells
    mega: frozenset[Coord]  # fully free mega cells of the single component

    def free_cells(self) -> int:
        return self.width * self.height - len(self.occupied)

    def cells(self) -> tuple[bool, ...]:
        occ = self.occupied
        return tuple((x, y) in occ for y in range(self.height)
                     for x in range(self.width))

    def movingai(self) -> bytes:
        occ = self.occupied
        rows = ["".join("@" if (x, y) in occ else "." for x in range(self.width))
                for y in range(self.height)]
        head = f"type octile\nheight {self.height}\nwidth {self.width}\nmap\n"
        return (head + "\n".join(rows) + "\n").encode("ascii")

    def digest(self) -> str:
        return hashlib.sha256(self.movingai()).hexdigest()


def rng_for(*parts: object) -> random.Random:
    """Seeded generator; string seeds hash with SHA-512, so the stream is
    the same in every process regardless of PYTHONHASHSEED."""
    return random.Random(":".join(str(p) for p in parts))


def _components(nodes: set[Coord]) -> list[set[Coord]]:
    unseen = set(nodes)
    comps = []
    while unseen:
        root = min(unseen)
        comp = {root}
        stack = [root]
        while stack:
            x, y = stack.pop()
            for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nb in unseen and nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        unseen -= comp
        comps.append(comp)
    return comps


def _largest(nodes: set[Coord]) -> set[Coord]:
    # ties go to the component found first, i.e. the one holding the
    # smallest cell, so the choice is deterministic
    return max(_components(nodes), key=len)


def _expand(mega: set[Coord]) -> set[Coord]:
    return {(2 * mx + dx, 2 * my + dy) for mx, my in mega
            for dx in (0, 1) for dy in (0, 1)}


def random_blocks(name: str, mega: int, ratio: float, rng: random.Random
                  ) -> GenMap:
    """Square map of ``mega`` x ``mega`` mega cells with a share ``ratio``
    of them blocked. Only the largest free component is kept; the other
    free regions are filled in, so the planner sees one component and
    every free unit cell is coverable."""
    all_mega = [(x, y) for y in range(mega) for x in range(mega)]
    blocked = set(rng.sample(all_mega, int(mega * mega * ratio)))
    keep = _largest(set(all_mega) - blocked)
    free_units = _expand(keep)
    side = 2 * mega
    occupied = frozenset((x, y) for y in range(side) for x in range(side)
                         if (x, y) not in free_units)
    return GenMap(name, side, side, occupied, frozenset(keep))


def warehouse(name: str, mega: int, rng: random.Random,
              clutter: float = 0.02) -> GenMap:
    """Shelf rows with cross aisles, an open depot in the top-left corner,
    clear four-cell lanes at both sides and ``clutter`` of the other unit
    cells occupied at random.

    Shelves are two cells deep with three-cell aisles and cross aisles,
    so every other shelf row and the cross aisles cut through 2x2 blocks;
    together with the clutter this leaves free cells in partly occupied
    blocks, which the planner cannot cover. Only the largest component of
    fully free mega cells is kept, and free cells not reachable from it
    are filled in.
    """
    side = 2 * mega
    occ: set[Coord] = set()
    depot = side // 8
    y = depot + rng.randint(1, 3)
    while y + 2 < side - 2:
        x = rng.randint(4, 5)
        while x < side - 4:
            length = rng.randint(6, 14)
            for yy in (y, y + 1):
                for xx in range(x, min(x + length, side - 4)):
                    occ.add((xx, yy))
            x += length + 3
        y += 2 + 3
    cells = [(x, y) for y in range(side) for x in range(side)]
    for x, y in rng.sample(cells, int(len(cells) * clutter)):
        # the depot and the two side lanes stay clear, so the shelf aisles
        # stay connected to the depot
        if (x >= depot or y >= depot) and 4 <= x < side - 4:
            occ.add((x, y))
    free_mega = {(mx, my) for my in range(mega) for mx in range(mega)
                 if not _expand({(mx, my)}) & occ}
    keep = _largest(free_mega)
    # the other fully free blocks fill in, then so does every free cell
    # that is not 4-connected to the kept blocks
    occ |= _expand(free_mega - keep)
    reach = _expand(keep)
    stack = list(reach)
    while stack:
        x, y = stack.pop()
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if (0 <= nb[0] < side and 0 <= nb[1] < side and nb not in occ
                    and nb not in reach):
                reach.add(nb)
                stack.append(nb)
    occupied = frozenset(c for c in cells if c not in reach)
    return GenMap(name, side, side, occupied, frozenset(keep))


def depot_starts(gen: GenMap, k: int) -> tuple[Coord, ...]:
    """The ``k`` coverable unit cells nearest the top-left corner."""
    cover = sorted(_expand(set(gen.mega)),
                   key=lambda c: (c[0] ** 2 + c[1] ** 2, c[1], c[0]))
    return tuple(cover[:k])
