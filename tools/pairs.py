"""Alternating-pair benchmark runs of two checkouts.

    python3 tools/pairs.py --parent ../parent --change . --workload large \
        --seed 8181 --seconds 30 --pairs 10

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
each checkout, once per side for each of ``--pairs`` pairs, the parent
first in even pairs and the change first in odd ones, so that a drift of
the host over minutes falls on both sides alike. For each end-to-end
metric it prints each side's median and quartiles, the pairs the change
won (ties count for neither), whether the change's median is better
or worse than the parent's by more than the parent's interquartile
range, the metric's verdict against its bound (see :func:`judge`), and
then every pair's value on each side. Which way is better and each
metric's bound are read from the ``BENCHMARK.json`` of this script's
checkout. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Compare one metric over pairs: ``parent[i]`` and ``change[i]`` come
    from pair ``i``, and ``better`` is ``"lower"`` or ``"higher"``.

    ``wins`` counts the pairs in which the change read better. ``beyond``
    is ``"better"`` or ``"worse"`` when the change's median is so by more
    than the parent's interquartile range, and ``"within"`` otherwise."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = -1 if better == "lower" else 1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    beyond = ("within" if abs(gain) <= p3 - p1
              else "better" if gain > 0 else "worse")
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "pairs": len(parent), "beyond": beyond}


def judge(parent: list[float], change: list[float], better: str,
          bound: float) -> str:
    """The verdict on one metric against its bound, a fraction of the
    parent's median: ``"regressed"`` when the change's median is worse
    than the parent's by more than that; otherwise ``"unresolved"`` when
    the parent's interquartile range exceeds it, unless every run of the
    change reads better than every run of the parent; otherwise
    ``"held"``."""
    s = summarize(parent, change, better)
    p1, pm, p3 = s["parent"]
    allowed = bound * abs(pm)
    sign = -1 if better == "lower" else 1
    if sign * (pm - s["change"][1]) > allowed:
        return "regressed"
    beats = (max(change) < min(parent) if better == "lower"
             else min(change) > max(parent))
    return "unresolved" if p3 - p1 > allowed and not beats else "held"


def run_once(checkout: Path, workload: str, seed: int, seconds: float
             ) -> tuple[dict, list[str]]:
    """One benchmark run in ``checkout``: its JSON result and its
    ``record_digest`` lines."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=max(900, 20 * seconds))
    if done.returncode != 0:
        sys.exit(f"{checkout}: benchmark exited with {done.returncode}\n"
                 f"{done.stderr}")
    lines = done.stdout.rstrip("\n").split("\n")
    digests = [line for line in lines if line.startswith("record_digest ")]
    return json.loads(lines[-1]), digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = {m["name"]: m for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    digests = {side: set() for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, lines = run_once(sides[side], args.workload, args.seed,
                                     args.seconds)
            runs[side].append(result)
            digests[side].add(tuple(lines))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    for side in sides:
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side}: {args.pairs} runs, failed {failed}/{attempted}, "
              f"{len(digests[side])} distinct record digest set(s)")
    print("record digests equal: "
          f"{digests['parent'] == digests['change']}")
    print("metric parent q1/median/q3 | change q1/median/q3 | wins | "
          "medians vs parent IQR | verdict against the bound")
    for name, entry in runs["parent"][0]["metrics"].items():
        metric = declared.get(name.rsplit(".", 1)[-1])
        if metric is None:
            continue
        direction = metric["better"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in sides}
        s = summarize(values["parent"], values["change"], direction)
        verdict = judge(values["parent"], values["change"], direction,
                        metric["bound"])
        cells = [" ".join(f"{v:.6g}" for v in s[side]) for side in sides]
        print(f"{name} ({entry['unit']}, {direction} is better, bound "
              f"{metric['bound']:g}): {cells[0]} | {cells[1]} | "
              f"{s['wins']}/{s['pairs']} | {s['beyond']} | {verdict}")
        for side in sides:
            print(f"  {side} by pair: "
                  + " ".join(f"{v:.6g}" for v in values[side]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
