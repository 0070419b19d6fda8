#!/usr/bin/env python3
"""Benchmark for bsurf: three seeded workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload weights --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20        # all three workloads

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  A run builds its inputs from the seed, runs one
warm-up round, then repeats whole rounds of the same operations (a closed
loop with one client) until ``--seconds`` have passed, checks every output
and prints the metrics; the last line of standard output is one JSON
object.  ``--trace 1`` instead measures a third of the time untraced and
the rest with layer spans on, and reports the per-layer metrics and the
tracing overhead.  See README.md in this directory for what each metric
means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("weights", "carried", "faces")
SETUP_SPAWNS = 11
UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "top_rung_ms": "ms", "peak_rss_mb": "MB"}


class Setup:
    """Wall time of a fresh interpreter importing bsurf and its CLI.

    The spawns are spread between rounds, so that the median is taken
    over the whole run rather than over one moment of it.
    """

    def __init__(self):
        self.times = []

    def spawn(self):
        if len(self.times) >= SETUP_SPAWNS:
            return
        code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import bsurf, bsurf.cli"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        self.times.append(time.perf_counter() - t0)

    def median(self) -> float:
        while len(self.times) < SETUP_SPAWNS:
            self.spawn()
        return statistics.median(self.times)


class Runner:
    """Runs rounds of operations and keeps what the metrics need."""

    def __init__(self, ops, setup: Setup, tracer=None):
        self.ops = ops
        self.setup = setup
        self.tracer = tracer
        self.samples = []            # (seconds, rung) of completed timed operations
        self.round_busy = []         # per timed round: seconds inside operations
        self.attempted = self.failed = 0
        self.faults = {}
        self.errors = []

    def round(self, timed: bool):
        busy = 0.0
        for i, op in enumerate(self.ops):
            tracing = timed and self.tracer is not None and self.tracer.installed
            if tracing:
                self.tracer.op = f"{len(self.round_busy)}:{i}"
                self.tracer.active = True
            exc = result = None
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as e:               # an operation may fail; the loop goes on
                exc = e
            dt = time.perf_counter() - t0
            if tracing:
                self.tracer.active = False
                if exc is None and isinstance(result, workloads.CliOut):
                    self.tracer.counts["cli.stdout_bytes"] += len(result.out)
            busy += dt
            if exc is not None:
                known = op.fault is not None and isinstance(exc, RecursionError)
                if not known:
                    self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}"[:300])
                if timed:
                    self.failed += 1
                    if known:
                        self.faults[op.fault] = self.faults.get(op.fault, 0) + 1
            else:
                problem = op.check(result)
                if problem:
                    self.errors.append(f"{op.name}: {problem}")
                elif timed:
                    self.samples.append((dt, op.rung))
            del result
            if timed:
                self.attempted += 1
        if timed:
            self.round_busy.append(busy)
        self.setup.spawn()

    def rounds_for(self, seconds: float, min_samples: int = 0):
        """Whole rounds until ``seconds`` have passed and enough samples exist."""
        start = time.perf_counter()
        first = True
        while (first or time.perf_counter() - start < seconds
               or len(self.samples) < min_samples):
            self.round(timed=True)
            first = False


def end_to_end(runner: Runner, setup: float) -> dict:
    lat = [dt for dt, _ in runner.samples]
    top = max((r for _, r in runner.samples if r is not None), default=None)
    top_lat = [dt for dt, r in runner.samples if r == top]
    return {
        "setup_s": setup,
        "ops_per_s": len(lat) / sum(runner.round_busy),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "top_rung_ms": statistics.median(top_lat) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    setup = Setup()
    for _ in range(3):
        setup.spawn()
    sys.path.insert(0, str(SRC))
    import bsurf
    if Path(bsurf.__file__).resolve().parent != SRC / "bsurf":
        print(f"error: imported bsurf from {bsurf.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        ops = workloads.BUILD[name](seed, work)
        gen_s = time.perf_counter() - t0
        tracer = Tracer() if trace else None
        runner = Runner(ops, setup, tracer)
        runner.round(timed=False)                 # warm-up, checked but not counted
        if trace:
            runner.rounds_for(seconds / 3)
            untraced = list(runner.round_busy)
            tracer.install()
            runner.rounds_for(seconds * 2 / 3)
            tracer.uninstall()
            traced = runner.round_busy[len(untraced):]
            metrics = tracer.metrics()
            metrics["trace.overhead_pct"] = (
                (statistics.median(traced) / statistics.median(untraced) - 1) * 100, "%")
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"trace-{name}-{seed}.json",
                         {"workload": name, "seed": seed, "seconds": seconds})
        else:
            runner.rounds_for(seconds, min_samples=100)    # >= 10 samples above p90
            metrics = {k: (v, UNITS[k]) for k, v in end_to_end(runner, setup.median()).items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    correct = not runner.errors
    rounds = len(runner.round_busy)
    print(f"workload {name} seed {seed}: {len(ops)} operations per round, {rounds} timed rounds, "
          f"{len(runner.samples)} completed samples, inputs built in {gen_s:.2f} s")
    print(f"attempted {runner.attempted}, failed {runner.failed}")
    for fault, n in sorted(runner.faults.items()):
        print(f"  known fault {fault}: {n} failed ({workloads.FAULTS[fault]})")
    for err in runner.errors[:20]:
        print(f"  WRONG: {err}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:36s} {value:14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own fresh process; prints each result line."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and proc.returncode in (0, 1) else None
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (SRC / "bsurf" / "__init__.py").is_file():
        print(f"error: no bsurf sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
