"""Spans recorded from outside the program.

The program's modules reach their callees through module attributes
(``pipeline.plan`` calls ``balance.balance_partition``, ``min_brick_tiling``
calls the module-level ``maximum_matching`` and so on), so replacing those
attributes with timing wrappers traces every layer boundary without
editing the source. ``install`` wraps, ``uninstall`` restores; spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

from turncover import (balance, bench, brick_tiling, cli, coverage_path,
                       grid_map, pipeline, tree_builder)

MODULES = {
    "cli": cli, "grid_map": grid_map, "pipeline": pipeline, "bench": bench,
    "brick_tiling": brick_tiling, "tree_builder": tree_builder,
    "coverage_path": coverage_path, "balance": balance,
}

# (module, attribute): the module whose attribute the callers look up
WRAPPED = (
    ("cli", "main"), ("cli", "plan_record_text"),
    ("grid_map", "parse_map"), ("grid_map", "build_spanning_graph"),
    ("grid_map", "connected_component"),
    ("pipeline", "plan"), ("pipeline", "build_component"),
    ("pipeline", "build_tree"), ("pipeline", "turns_by_method"),
    ("brick_tiling", "min_brick_tiling"),
    ("brick_tiling", "build_segment_graph"),
    ("brick_tiling", "maximum_matching"),
    ("brick_tiling", "max_independent_set"),
    ("brick_tiling", "tiling_from_independent_set"),
    ("tree_builder", "merge_bricks"), ("tree_builder", "dfs_tree"),
    ("tree_builder", "kruskal_tree"), ("tree_builder", "tree_turns"),
    ("coverage_path", "circumnavigate"),
    ("balance", "anchor_starts"), ("balance", "balance_partition"),
    ("balance", "_greedy_cuts"), ("balance", "path_time"),
    ("bench", "run_scenario"), ("bench", "compare_trees"),
)

# counts taken at a span's boundary from its arguments and result
COUNTERS = {
    "cli.plan_record_text":
        lambda args, out: {"cli.bytes_out": len(out.encode())},
    "brick_tiling.build_segment_graph":
        lambda args, g: {"brick_tiling.segments": len(g.segments),
                         "brick_tiling.conflict_edges": len(g.edges)},
    "brick_tiling.maximum_matching":
        lambda args, m: {"brick_tiling.matching_size": len(m)},
    "coverage_path.circumnavigate":
        lambda args, loop: {"coverage_path.loop_nodes": len(loop)},
    # every caller passes the map as the first positional argument
    "pipeline.plan":
        lambda args, r: {"grid_map.dropped_cells":
                         args[0].free_count() - 4 * len(r.span.nodes)},
}

# per-layer metrics: name -> unit; see README.md for what each one moves
LAYER_UNITS = {
    "balance.partition_s": "s", "balance.anchor_s": "s",
    "balance.cost_evals": "count", "balance.greedy_calls": "count",
    "brick_tiling.matching_s": "s", "brick_tiling.segment_graph_s": "s",
    "brick_tiling.independent_set_s": "s", "brick_tiling.tiling_s": "s",
    "brick_tiling.segments": "count", "brick_tiling.conflict_edges": "count",
    "brick_tiling.matching_size": "count",
    "brick_tiling.calls_per_map": "count",
    "tree_builder.trees_per_map": "count", "tree_builder.merge_s": "s",
    "tree_builder.baselines_s": "s",
    "pipeline.turns_by_method_s": "s", "pipeline.plan_s": "s",
    "pipeline.self_s": "s",
    "bench.run_scenario_s": "s", "bench.compare_trees_s": "s",
    "bench.self_s": "s",
    "coverage_path.circumnavigate_s": "s", "coverage_path.path_time_s": "s",
    "coverage_path.path_time_calls": "count",
    "coverage_path.loop_nodes": "count",
    "grid_map.parse_s": "s", "grid_map.discretize_s": "s",
    "grid_map.component_s": "s", "grid_map.dropped_cells": "count",
    "cli.main_s": "s", "cli.records_s": "s", "cli.bytes_out": "bytes",
    "trace.plan_s_p50": "s", "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 at the top
    plan: int  # shared by every span of one item


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.plan_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for mod, attr in WRAPPED:
            owner = MODULES[mod]
            self._swap(owner, attr,
                       self._span(f"{mod}.{attr}", getattr(owner, attr)))
        # ~10^5 calls per plan: counted, not spanned
        model = balance.LoopCostModel
        self._swap(model, "arc_cost", self._count(model.arc_cost))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _swap(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _count(self, fn):
        counts = self.counts

        def wrapper(*args):
            counts["balance.cost_evals"] += 1
            return fn(*args)
        return wrapper

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = Span(sid, name, start, end, parent, self.plan_id)
            if counter is not None:
                self.counts.update(counter(args, out))
            return out
        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time its
        direct children cover (one thread, so children never overlap)."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.end - s.start - child[s.id]
        return dict(out)

    def layer_metrics(self, plans: int, maps: int) -> dict[str, float]:
        """Per-layer metrics of the traced items: seconds and counts per
        plan, except the ``*_per_map`` counts."""
        total = defaultdict(float)
        calls = Counter()
        for s in self.spans:
            total[s.name] += s.end - s.start
            calls[s.name] += 1
        plan_in_scenario = sum(
            s.end - s.start for s in self.spans
            if s.name == "pipeline.plan" and s.parent >= 0
            and self.spans[s.parent].name == "bench.run_scenario")
        own = self.self_times()
        per_plan = {
            "balance.partition_s": total["balance.balance_partition"],
            "balance.anchor_s": total["balance.anchor_starts"],
            "balance.cost_evals": self.counts["balance.cost_evals"],
            "balance.greedy_calls": calls["balance._greedy_cuts"],
            "brick_tiling.matching_s": total["brick_tiling.maximum_matching"],
            "brick_tiling.segment_graph_s":
                total["brick_tiling.build_segment_graph"],
            "brick_tiling.independent_set_s":
                total["brick_tiling.max_independent_set"],
            "brick_tiling.tiling_s":
                total["brick_tiling.tiling_from_independent_set"],
            "brick_tiling.segments": self.counts["brick_tiling.segments"],
            "brick_tiling.conflict_edges":
                self.counts["brick_tiling.conflict_edges"],
            "brick_tiling.matching_size":
                self.counts["brick_tiling.matching_size"],
            "tree_builder.merge_s": total["tree_builder.merge_bricks"],
            "tree_builder.baselines_s":
                total["tree_builder.dfs_tree"] + total["tree_builder.kruskal_tree"],
            "pipeline.turns_by_method_s": total["pipeline.turns_by_method"],
            "pipeline.plan_s": total["pipeline.plan"],
            "pipeline.self_s": own.get("pipeline.plan", 0.0),
            "bench.run_scenario_s": total["bench.run_scenario"],
            "bench.compare_trees_s": total["bench.compare_trees"],
            "bench.self_s": total["bench.run_scenario"] - plan_in_scenario,
            "coverage_path.circumnavigate_s":
                total["coverage_path.circumnavigate"],
            "coverage_path.path_time_s": total["balance.path_time"],
            "coverage_path.path_time_calls": calls["balance.path_time"],
            "coverage_path.loop_nodes": self.counts["coverage_path.loop_nodes"],
            "grid_map.parse_s": total["grid_map.parse_map"],
            "grid_map.discretize_s": total["grid_map.build_spanning_graph"],
            "grid_map.component_s": total["grid_map.connected_component"],
            "grid_map.dropped_cells": self.counts["grid_map.dropped_cells"],
            "cli.main_s": total["cli.main"],
            "cli.records_s": total["cli.plan_record_text"],
            "cli.bytes_out": self.counts["cli.bytes_out"],
        }
        out = {name: value / plans for name, value in per_plan.items()}
        out["brick_tiling.calls_per_map"] = (
            calls["brick_tiling.min_brick_tiling"] / maps)
        out["tree_builder.trees_per_map"] = (
            calls["tree_builder.merge_bricks"] + calls["tree_builder.dfs_tree"]
            + calls["tree_builder.kruskal_tree"]) / maps
        return out
