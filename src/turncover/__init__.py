"""Turn-minimizing multi-robot coverage path planning on grid maps."""

from .balance import (
    CoveragePlan,
    anchor_starts,
    arc_cost,
    balance_partition,
)
from .brick_tiling import (
    BrickSet,
    SegmentGraph,
    build_segment_graph,
    max_independent_set,
    maximum_matching,
    min_brick_tiling,
    tiling_from_independent_set,
)
from .coverage_path import (
    CoverageLoop,
    RobotParams,
    circumnavigate,
    extract_twists,
    leg_time,
    path_time,
)
from .grid_map import (
    DisconnectedGraphError,
    GridMap,
    MapFormatError,
    SpanningGraph,
    build_spanning_graph,
    connected_component,
    parse_map,
)
from .tree_builder import (
    SpanningTree,
    dfs_tree,
    kruskal_tree,
    merge_bricks,
    tree_turns,
    turn_count,
)

__version__ = "0.1.0"
