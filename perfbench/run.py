"""turncover benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

Runs the workload's items back to back, each call starting when the
previous one returns, until ``--seconds`` have passed and every item has
run at least once. Then it checks every distinct output and prints one
``name value unit`` line per metric, followed by a JSON result line.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs every
item untraced and then traced and reports the per-layer metrics and the
tracing overhead. ``--workload all`` runs each workload in its own fresh
process, one after another. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END_UNITS = {
    "plan_s_p50": "s", "cells_per_s": "cells/s", "setup_s": "s",
    "peak_rss_mb": "MB", "makespan_s": "robot-s", "tree_turns": "turns",
    "bricks": "bricks", "coverage_ratio": "ratio",
}
WORKLOADS = ("fleet", "large", "depot")
# Times are reported in seconds of a host on which one host probe takes
# REFERENCE_PROBE_S: the measured value times reference / measured probe.
# Host speed drifts by a third over minutes while the probe tracks it; see
# README.md. Exponent per unit: times scale, rates scale inversely.
REFERENCE_PROBE_S = 0.015
SCALED = {"s": 1, "cells/s": -1}
SETUP_REPEATS = 8  # before and again after the loop


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and make sure the
    package really comes from there."""
    if not (SRC / "turncover" / "__init__.py").is_file():
        sys.exit(f"no turncover sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import turncover
    if Path(turncover.__file__).resolve().parent != SRC / "turncover":
        sys.exit(f"turncover imported from {turncover.__file__}, not {SRC}")


def host_probe() -> list[float]:
    """Seconds for a fixed pure-Python loop, three times. The program does
    not run inside it, so a change to the program cannot move it; only the
    host's speed can."""
    times = []
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(perf_counter() - start)
    return times


def import_times(n: int) -> list[float]:
    """Seconds for each of ``n`` fresh interpreters to run
    ``import turncover.cli``, which loads every layer."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import turncover.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(n):
        done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                              capture_output=True, text=True, check=True,
                              timeout=60)
        times.append(float(done.stdout))
    return times


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "turncover").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def settle() -> None:
    """Collect, then freeze what survives: the next call starts with an
    empty young heap, and the cyclic collector never walks the benchmark's
    own maps and kept results while the program runs."""
    gc.collect()
    gc.freeze()


class Capture:
    """Keeps the ``PlanResult`` of the last ``pipeline.plan`` call so the
    checks can see it whichever entry point made the plan. It adds one
    Python call per plan and is installed in every run."""

    def __init__(self, pipeline) -> None:
        self.pipeline = pipeline
        self.original = pipeline.plan
        self.last = None

        def plan(*args, **kwargs):
            self.last = self.original(*args, **kwargs)
            return self.last
        pipeline.plan = plan

    def take(self):
        result, self.last = self.last, None
        return result

    def close(self) -> None:
        self.pipeline.plan = self.original


class Runner:
    """Runs items, times each call, and keeps the first output of every
    item for the checks and a digest of every later one."""

    def __init__(self, capture: Capture, record_bytes) -> None:
        self.capture = capture
        self.record_bytes = record_bytes
        self.first: dict[str, tuple] = {}  # key -> (raw, result, record)
        self.digests: dict[str, str] = {}
        self.failed: set[int] = set()  # indices into self.samples
        self.samples: list[tuple[str, bool, float, int]] = []
        self.by_key: dict[str, list[int]] = {}

    def run(self, item, tracer=None) -> None:
        index = len(self.samples)
        self.by_key.setdefault(item.key, []).append(index)
        if tracer is not None:
            tracer.plan_id = index
            tracer.install()
        start = perf_counter()
        try:
            raw = item.call()
            error = None
        except Exception:  # a plan that raises is counted, not fatal
            raw, error = None, traceback.format_exc()
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        result = self.capture.take()
        covered = len(result.loop) if result is not None else 0
        self.samples.append((item.key, item.is_plan, seconds, covered))
        if error is not None:
            print(f"{item.key}: raised\n{error}", file=sys.stderr)
            self.failed.add(index)
        else:
            self._keep(index, item, raw, result)
        settle()

    def _keep(self, index: int, item, raw, result) -> None:
        record = self.record_bytes(item, raw, result)
        digest = hashlib.sha256(record).hexdigest()
        if item.key not in self.first:
            self.first[item.key] = (raw, result, record)
            self.digests[item.key] = digest
        elif digest != self.digests[item.key]:
            print(f"{item.key}: output changed between repeats",
                  file=sys.stderr)
            self.failed.add(index)

    def fail_key(self, key: str) -> None:
        self.failed.update(self.by_key.get(key, ()))


def run_loop(runner: Runner, items, seconds: float, probes: list[float],
             tracer=None) -> None:
    """Closed loop: items back to back until ``seconds`` of wall time have
    passed and every item ran at least once. With ``tracer`` every item
    runs untraced and then traced, and only whole cycles run, so that the
    per-map counts are exact. Between items, about every two seconds, the
    host probe runs so that it sees the same host as the plans."""
    start = last_probe = perf_counter()
    first_cycle = True
    while True:
        for item in items:
            runner.run(item)
            if tracer is not None:
                runner.run(item, tracer)
            if perf_counter() - last_probe >= 2.0:
                probes += host_probe()
                last_probe = perf_counter()
            if tracer is None and not first_cycle \
                    and perf_counter() - start >= seconds:
                return
        first_cycle = False
        if perf_counter() - start >= seconds:
            return


def run_checks(runner: Runner, items) -> None:
    import checks

    first = runner.first
    for item in items:
        if item.key not in first:
            continue  # it raised, already counted
        raw, result, record = first[item.key]
        if item.kind == "trees":
            reports = [first[i.key][0] for i in items
                       if i.kind == "scenario" and i.gen is item.gen
                       and i.key in first]
            problems = checks.check_trees(raw, item.gen, reports)
        else:
            problems = checks.check_item(item, raw, result, record)
            problems += checks.check_bricks(result)
        for problem in problems:
            print(f"{item.key}: check failed: {problem}", file=sys.stderr)
        if problems:
            runner.fail_key(item.key)


def remember_digests(workload: str, seed: int, scale: str, inputs: str,
                     digests: dict[str, str]) -> list[str]:
    """Compare the record digests with those of an earlier run of the
    same workload, seed, inputs and program sources, or store them."""
    key = hashlib.sha256(
        f"{workload}|{seed}|{scale}|{inputs}|{source_digest()}".encode()
    ).hexdigest()[:20]
    path = OUT / f"digests-{workload}-{key}.json"
    if path.exists():
        old = json.loads(path.read_text())
        return [k for k, v in digests.items() if old.get(k, v) != v]
    OUT.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=OUT, prefix=".digests-")
    with os.fdopen(fd, "w") as fh:
        json.dump(digests, fh, sort_keys=True)
    os.replace(tmp, path)
    return []


def _tail(ordered: list[float]) -> str:
    """The highest of p99 and p90 with at least ten samples beyond it."""
    for q in (99, 90):
        if len(ordered) * (100 - q) >= 1000:
            return f" p{q} {ordered[len(ordered) * q // 100]:.6f} s"
    return ""


def end_to_end(runner: Runner, items, setup_s: float, peak_rss_mb: float
               ) -> dict[str, float]:
    plans = [s for s in runner.samples if s[1]]
    timed = sum(s[2] for s in runner.samples)
    distinct = [(item, runner.first[item.key][1]) for item in items
                if item.is_plan and item.key in runner.first]
    return {
        "plan_s_p50": statistics.median(s[2] for s in plans),
        "cells_per_s": sum(s[3] for s in plans) / timed,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "makespan_s": sum(r.plan.makespan for _, r in distinct),
        "tree_turns": sum(r.tree_turns for _, r in distinct),
        "bricks": sum(r.brick_count for _, r in distinct),
        "coverage_ratio": sum(len(r.loop) for _, r in distinct)
        / max(1, sum(i.gen.free_cells() for i, _ in distinct)),
    }


def run_workload(args) -> dict:
    _import_program()
    import workloads
    from turncover import pipeline

    phases = {}
    clock = perf_counter()
    setup_times = []
    if not args.trace:
        import_times(1)  # writes the bytecode cache, as an install would
        setup_times = import_times(SETUP_REPEATS)
    phases["setup"] = perf_counter() - clock
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix="work-"))
    capture = Capture(pipeline)
    try:
        clock = perf_counter()
        items = workloads.build(args.workload, args.seed, args.scale, workdir)
        phases["generate"] = perf_counter() - clock
        inputs = hashlib.sha256("".join(
            sorted({i.gen.digest() for i in items})).encode()).hexdigest()
        runner = Runner(capture, workloads.record_bytes)
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        settle()
        probes = host_probe()
        clock = perf_counter()
        run_loop(runner, items, args.seconds, probes, tracer)
        phases["loop"] = perf_counter() - clock
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        if not args.trace:
            setup_times += import_times(SETUP_REPEATS)
        clock = perf_counter()
        run_checks(runner, items)
        phases["check"] = perf_counter() - clock
    finally:
        capture.close()
        shutil.rmtree(workdir, ignore_errors=True)
    for key in remember_digests(args.workload, args.seed, args.scale, inputs,
                                runner.digests):
        print(f"{key}: record digest differs from an earlier run with the "
              "same seed", file=sys.stderr)
        runner.fail_key(key)

    attempted = len(runner.samples)
    failed = len(runner.failed)
    record_digest = hashlib.sha256("".join(
        runner.digests[i.key] for i in items
        if i.key in runner.digests).encode()).hexdigest()
    plan_times = sorted(s[2] for s in runner.samples if s[1])
    probe = statistics.median(probes)
    scale = REFERENCE_PROBE_S / probe
    lines = [
        f"workload {args.workload} seed {args.seed} scale {args.scale} "
        f"items/cycle {len(items)} inputs sha256:{inputs[:16]}",
        f"record_digest sha256:{record_digest}",
        f"host_probe_s {probe:.6f} s (min {min(probes):.6f}, "
        f"max {max(probes):.6f}, n={len(probes)}; reference "
        f"{REFERENCE_PROBE_S} s, so times scale by {scale:.4f})",
        f"fail_ratio {failed / attempted:.6f} ratio ({failed}/{attempted})",
        "phase_s " + " ".join(f"{k} {v:.2f}" for k, v in phases.items()),
    ]
    if tracer is None:
        metrics = end_to_end(runner, items, statistics.median(setup_times),
                             peak_rss_mb)
        units = END_TO_END_UNITS
        lines.append(f"plans {len(plan_times)} timed_s "
                     f"{sum(s[2] for s in runner.samples):.3f}"
                     + _tail(plan_times))
    else:
        metrics, self_lines = traced_metrics(runner, tracer, items, args)
        units = tracing.LAYER_UNITS
        lines += self_lines
    unscaled = {}
    for name, value in metrics.items():
        if units[name] in SCALED:
            unscaled[name] = value
            metrics[name] = value * scale ** SCALED[units[name]]
        lines.append(f"{name} {metrics[name]:.6g} {units[name]}")
    lines.append("unscaled " + " ".join(f"{name} {value:.6g}"
                                        for name, value in unscaled.items()))
    print("\n".join(lines))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def traced_metrics(runner: Runner, tracer, items, args
                   ) -> tuple[dict, list[str]]:
    # samples alternate untraced, traced, over whole cycles
    untraced = [s[2] for s in runner.samples[0::2] if s[1]]
    traced = [s[2] for s in runner.samples[1::2] if s[1]]
    cycles = len(runner.samples) // 2 // len(items)
    maps = cycles * len({item.gen.name for item in items})
    metrics = tracer.layer_metrics(len(traced), maps)
    metrics["trace.plan_s_p50"] = statistics.median(traced)
    metrics["trace.overhead_s"] = (metrics["trace.plan_s_p50"]
                                   - statistics.median(untraced))
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    own = tracer.self_times()
    total = sum(own.values())
    lines = [f"traced plans {len(traced)}, maps {maps}; self time per plan:"]
    for name, value in sorted(own.items(), key=lambda kv: -kv[1])[:8]:
        lines.append(f"  self {name} {value / len(traced):.6f} s "
                     f"({100 * value / total:.1f}%)")
    return metrics, lines


def run_all(args) -> dict:
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                name, "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", str(args.trace),
                "--scale", args.scale]
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            sys.exit(f"workload {name} exited with {done.returncode}")
        out = done.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]))
        results[name] = json.loads(out[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items()
                    for m, v in r["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
