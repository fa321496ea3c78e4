"""Command-line front end: tile, tree, plan and bench subcommands."""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
import tempfile
import time
from pathlib import Path
from typing import NoReturn

from . import (bench, brick_tiling, coverage_path, grid_map, pipeline, render,
               tree_builder)
from .coverage_path import RobotParams


def _emit(path: str | None, text: str) -> None:
    """Write ``text`` to stdout when ``path`` is None or ``-``, and in
    place to a device, pipe or other existing file that is not a regular
    one. Otherwise replace the file ``path`` names, through any
    symlinks, by a complete file, with the mode a plain write gives: the
    existing file's, or ``0o666`` less the umask."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    path = os.path.realpath(path)  # a link stays a link to the new file
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)
    if not stat.S_ISREG(mode):
        with open(path, "w") as fh:
            fh.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".turncover-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, stat.S_IMODE(mode))  # mkstemp creates it owner-only
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class CliError(Exception):
    def __init__(self, category: str, detail: str):
        super().__init__(f"{category}: {detail}")
        self.category = category


class _Parser(argparse.ArgumentParser):
    """Reports what argparse rejects as a usage error, not by exiting."""

    def error(self, message: str) -> NoReturn:
        raise CliError("usage error", message)


def _load_map(args) -> grid_map.GridMap:
    if args.map is None:
        raise CliError("usage error", "--map is required")
    data = Path(args.map).read_bytes()
    return grid_map.parse_map(data, args.format, args.d)


def _params(args) -> RobotParams:
    try:
        return RobotParams(accel=args.accel, v_max=args.vmax, omega=args.omega)
    except ValueError as exc:
        raise CliError("usage error", str(exc)) from exc


def cmd_tile(args) -> int:
    grid = _load_map(args)
    span = pipeline.build_component(grid, None)
    bricks = brick_tiling.min_brick_tiling(span)
    s, r = span.free.count(1), len(bricks)
    _emit(args.out, brick_tiling.tiling_to_text(span, bricks))
    print(f"S={s} T={s - r} R={r}")
    return 0


def cmd_tree(args) -> int:
    grid = _load_map(args)
    span = pipeline.build_component(grid, None)
    tree, bricks = pipeline.build_tree(span, args.method, args.seed)
    _emit(args.out, tree_builder.tree_to_text(tree))
    if args.svg:
        _emit(args.svg, render.render_svg(grid, bricks, tree))
    print(f"edges={len(tree.edges)} turns={tree_builder.tree_turns(tree)}")
    return 0


def plan_record_text(result: pipeline.PlanResult, d: float) -> str:
    """One line per robot: id, anchored loop index, twist count, time
    (3 decimals), then metric waypoints as x:y pairs.

    Each unit-cell coordinate is formatted once, and each straight run
    of a sweep is written by one join of those strings: down or up a
    column the x string prefixes every y string, along a row the y
    string follows every x string. The whole text is joined once.
    """
    span = result.span
    text = [f"{(c + 0.5) * d:.3f}"
            for c in range(2 * max(span.mega_width, span.mega_height))]
    parts = []
    for robot in result.plan.robots:
        parts.append(f"robot={robot.robot_id} anchor={robot.anchored} "
                     f"twists={robot.twists} time={robot.time:.3f} "
                     "waypoints=")
        for fixed, first, last, vertical in coverage_path.legs(robot.runs,
                                                               robot.rows):
            words = (text[first:last + 1] if first <= last
                     else text[last:first + 1][::-1])
            if vertical:
                prefix = text[fixed] + ":"
                parts.append(prefix + (" " + prefix).join(words))
            else:
                suffix = ":" + text[fixed]
                parts.append((suffix + " ").join(words) + suffix)
            parts.append(" ")
        parts[-1] = "\n"
    return "".join(parts)


def cmd_plan(args) -> int:
    if args.robots < 1:
        raise CliError("usage error", "--robots must be at least 1")
    grid = _load_map(args)
    starts = args.start or None
    if starts is not None and len(starts) != args.robots:
        raise CliError(
            "usage error",
            f"{len(starts)} --start values for --robots {args.robots}",
        )
    params = _params(args)
    result = pipeline.plan(
        grid,
        k=args.robots,
        starts=starts,
        params=params,
        tree_method=args.method,
        seed=args.seed,
    )
    _emit(args.out, plan_record_text(result, args.d))
    if args.svg:
        _emit(args.svg, render.render_svg(grid, result.bricks, result.tree,
                                          result.plan))
    return 0


def cmd_bench(args) -> int:
    if args.maps < 0:
        raise CliError("usage error", "--maps must be nonnegative")
    if min(args.robots) < 1:
        raise CliError("usage error", "--robots values must be at least 1")
    if min(args.mega) < 1:
        raise CliError("usage error", "--mega dimensions must be at least 1")
    if not 0 <= args.obstacle_ratio < 1:
        raise CliError("usage error", "--obstacle-ratio must be in [0, 1)")
    params = _params(args)
    mega = args.mega
    grids = []
    for i in range(args.maps):
        seed = args.seed + i
        grids.append(
            (f"random-{seed}",
             bench.generate_random_map(mega, args.obstacle_ratio, seed, args.d))
        )
    rows, reports = [], []
    for name, grid in grids:
        # one cover per map; a k's plan(s) is its time plus k's assignment
        t0 = time.perf_counter()
        span = pipeline.build_component(grid, None)
        cover = pipeline.cover(span, grid.resolution_d, None, args.method,
                               args.seed)
        shared = time.perf_counter() - t0
        turns = pipeline.method_turns(span, args.seed,
                                      {args.method: cover.tree_turns})
        rows.append({"map": name, **turns})
        for k in args.robots:
            t0 = time.perf_counter()
            result = pipeline.assign(cover, k, None, params)
            seconds = shared + time.perf_counter() - t0
            reports.append(bench.run_report(name, args.method, result, turns,
                                            seconds))
    text = bench.turns_table(rows) + "\n" + bench.report_table(reports)
    if args.records:
        _emit(args.records, "".join(r.record_line() + "\n" for r in reports))
    _emit(args.out, text)
    return 0


def _int_pair(value: str) -> tuple[int, int]:
    try:
        a, b = value.split(",")
        return (int(a), int(b))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated integers — got {value!r}"
        ) from exc


def _int_list(value: str) -> list[int]:
    try:
        return [int(tok) for tok in value.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers — got {value!r}"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="turncover",
        description="Turn-minimizing multi-robot coverage planning",
    )
    # the subcommand parsers are _Parser too: argparse builds them with the
    # class of the parser that adds them
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_map=True):
        if needs_map:
            p.add_argument("--map", help="map file path")
            p.add_argument("--format", choices=("movingai", "grid01"),
                           default="grid01")
        p.add_argument("--d", type=float, default=0.5,
                       help="tool width / unit cell size in meters")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def kinematics(p):
        p.add_argument("--vmax", type=float, default=0.5)
        p.add_argument("--omega", type=float, default=0.8)
        p.add_argument("--accel", type=float, default=0.6)

    p_tile = sub.add_parser("tile", help="minimum brick tiling")
    common(p_tile)
    p_tile.set_defaults(func=cmd_tile)

    p_tree = sub.add_parser("tree", help="spanning tree construction")
    common(p_tree)
    p_tree.add_argument("--method", choices=pipeline.TREE_METHODS,
                        default="tmstc")
    p_tree.add_argument("--seed", type=int, default=0)
    p_tree.add_argument("--svg", default=None)
    p_tree.set_defaults(func=cmd_tree)

    p_plan = sub.add_parser("plan", help="multi-robot coverage plan")
    common(p_plan)
    kinematics(p_plan)
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.add_argument("--robots", type=int, default=1)
    p_plan.add_argument("--start", action="append", type=_int_pair,
                        help="robot start cell x,y (repeatable)")
    p_plan.add_argument("--method", choices=pipeline.TREE_METHODS,
                        default="tmstc")
    p_plan.add_argument("--svg", default=None)
    p_plan.set_defaults(func=cmd_plan)

    p_bench = sub.add_parser("bench", help="experiment harness")
    common(p_bench, needs_map=False)
    kinematics(p_bench)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--maps", type=int, default=5,
                         help="number of generated random maps")
    p_bench.add_argument("--mega", type=_int_pair, default=(10, 10),
                         help="mega-cell dimensions W,H of generated maps")
    p_bench.add_argument("--obstacle-ratio", type=float, default=0.1)
    p_bench.add_argument("--robots", type=_int_list, default=[1, 2, 4],
                         help="robot counts, comma-separated")
    p_bench.add_argument("--method", choices=pipeline.TREE_METHODS,
                         default="tmstc")
    p_bench.add_argument("--records", default=None,
                         help="machine-readable record file")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    # kept in a local until main returns: dropping it right after parsing
    # raised the peak RSS of repeated 120x120 plans by about 1 MB
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not (args.d > 0 and math.isfinite(args.d)):
            raise CliError("usage error", "--d must be a positive finite number")
        if "" in map(vars(args).get, ("out", "svg", "records")):
            raise CliError("usage error", "an output path must not be empty")
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except grid_map.DisconnectedGraphError as exc:
        print(f"disconnected: {exc}", file=sys.stderr)
        return 1
    except grid_map.MapFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"planning error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
