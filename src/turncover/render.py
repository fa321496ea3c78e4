"""SVG rendering of maps, bricks, trees and robot arcs.

Purely presentational: 16 px per unit cell, bricks as shaded rectangles,
tree edges as strokes, robot arcs colored by id.
"""

from __future__ import annotations

from .balance import CoveragePlan
from .brick_tiling import BrickSet
from .grid_map import GridMap
from .tree_builder import SpanningTree

PX = 16
ARC_COLORS = (
    "#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf",
)
BRICK_FILLS = ("#c6dbef", "#fdd0a2", "#c7e9c0", "#dadaeb", "#fee0d2")


def render_svg(
    grid: GridMap,
    bricks: BrickSet | None = None,
    tree: SpanningTree | None = None,
    plan: CoveragePlan | None = None,
) -> str:
    w, h = grid.width * PX, grid.height * PX
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="#ffffff"/>',
    ]
    for x, y in grid.occupied_cells():
        parts.append(
            f'<rect x="{x * PX}" y="{y * PX}" width="{PX}" height="{PX}" '
            f'fill="#404040"/>'
        )
    if bricks is not None:
        for i, brick in enumerate(bricks.bricks):
            xs = [c[0] for c in brick]
            ys = [c[1] for c in brick]
            x0, y0 = min(xs) * 2 * PX, min(ys) * 2 * PX
            bw = (max(xs) - min(xs) + 1) * 2 * PX
            bh = (max(ys) - min(ys) + 1) * 2 * PX
            fill = BRICK_FILLS[i % len(BRICK_FILLS)]
            parts.append(
                f'<rect x="{x0}" y="{y0}" width="{bw}" height="{bh}" '
                f'fill="{fill}" stroke="#6b6b6b" stroke-width="1" '
                f'class="brick"/>'
            )
    if tree is not None:
        for (ax, ay), (bx, by) in sorted(tree.edges):
            x1, y1 = (2 * ax + 1) * PX, (2 * ay + 1) * PX
            x2, y2 = (2 * bx + 1) * PX, (2 * by + 1) * PX
            parts.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke="#b22222" stroke-width="3" class="tree-edge"/>'
            )
    if plan is not None:
        for robot in plan.robots:
            color = ARC_COLORS[robot.robot_id % len(ARC_COLORS)]
            pts = " ".join(
                f"{(x + 0.5) * PX:.1f},{(y + 0.5) * PX:.1f}"
                for x, y in robot.sequence
            )
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="2" class="robot-arc"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
