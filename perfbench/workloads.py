"""The workloads: inputs generated from the seed, and the calls into the
program that one closed-loop client makes back to back.

Each workload is a cycle of items. An item is one call into the program's
public API; every item except ``trees`` is a plan. The program only ever
receives the generated maps, as ``GridMap`` objects or as movingai files.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from maps import Coord, GenMap, depot_starts, random_blocks, rng_for, warehouse
from turncover import bench, cli, pipeline
from turncover.grid_map import GridMap

# maps per cycle and mega cells per side; "tiny" serves the smoke test
SIZES = {
    "full": {"fleet": (12, 20), "large": (2, 120), "depot": (4, 40)},
    "tiny": {"fleet": (2, 6), "large": (1, 10), "depot": (1, 12)},
}
OBSTACLE_RATIO = 0.1
FLEET_K = (4, 16)
DEPOT_K = (1, 4, 8)
D = 0.5  # unit cell size in meters, the CLI default


@dataclass(frozen=True)
class Item:
    key: str  # unique within the workload
    kind: str  # "plan", "cli", "scenario" or "trees"
    gen: GenMap
    call: Callable[[], object]
    k: int = 0
    starts: tuple[Coord, ...] | None = None
    out: Path | None = None  # record file written by the CLI

    @property
    def is_plan(self) -> bool:
        return self.kind != "trees"


def _grid(gen: GenMap) -> GridMap:
    return GridMap(gen.width, gen.height, gen.cells(), D)


# The calls look the program's functions up through their modules at call
# time, so the traced run can wrap those attributes.

def _fleet(seed: int, n: int, mega: int, workdir: Path) -> list[Item]:
    items = []
    for i in range(n):
        gen = random_blocks(f"fleet-{seed}-{i}", mega, OBSTACLE_RATIO,
                            rng_for("fleet", seed, i))
        grid = _grid(gen)
        for k in FLEET_K:
            items.append(Item(f"{gen.name}-k{k}", "plan", gen,
                              lambda grid=grid, k=k: pipeline.plan(grid, k=k),
                              k))
    return items


def _large(seed: int, n: int, mega: int, workdir: Path) -> list[Item]:
    items = []
    for i in range(n):
        gen = random_blocks(f"large-{seed}-{i}", mega, OBSTACLE_RATIO,
                            rng_for("large", seed, i))
        path = workdir / f"{gen.name}.map"
        path.write_bytes(gen.movingai())
        out = workdir / f"{gen.name}.plan"
        argv = ["plan", "--map", str(path), "--format", "movingai",
                "--out", str(out)]
        items.append(Item(gen.name, "cli", gen,
                          lambda argv=argv: _run_cli(argv), 1, out=out))
    return items


def _run_cli(argv: list[str]) -> int:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cli.main returned {code}")
    return code


def _depot(seed: int, n: int, mega: int, workdir: Path) -> list[Item]:
    items = []
    for i in range(n):
        gen = warehouse(f"depot-{seed}-{i}", mega, rng_for("depot", seed, i))
        grid = _grid(gen)
        items.append(Item(f"{gen.name}-trees", "trees", gen,
                          lambda g=gen, grid=grid:
                          bench.compare_trees([(g.name, grid)])))
        for k in DEPOT_K:
            starts = depot_starts(gen, k)
            scenario = bench.Scenario(name=gen.name, grid=grid, k=k,
                                      starts=starts)
            items.append(Item(f"{gen.name}-k{k}", "scenario", gen,
                              lambda s=scenario: bench.run_scenario(s),
                              k, starts))
    return items


_BUILDERS = {"fleet": _fleet, "large": _large, "depot": _depot}


def build(workload: str, seed: int, scale: str, workdir: Path) -> list[Item]:
    """One cycle of the workload's items, generated from ``seed``."""
    n, mega = SIZES[scale][workload]
    return _BUILDERS[workload](seed, n, mega, workdir)


def record_bytes(item: Item, raw: object, result) -> bytes:
    """Deterministic bytes of one item's output, for the digests: the
    ``plan_record_text`` of every plan, plus the harness record line or
    turn table where the item returns one."""
    if item.kind == "cli":
        return item.out.read_bytes()
    if item.kind == "trees":
        return repr(raw).encode()
    text = cli.plan_record_text(result, D)
    if item.kind == "scenario":
        text += raw.record_line() + "\n"
    return text.encode()
