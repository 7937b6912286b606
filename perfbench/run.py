#!/usr/bin/env python3
"""Benchmark of vbspool: the plan, query and verify workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plan --seed 1 --seconds 25 --trace 0

The program is imported from ``src/``. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced pass with ``--trace 1``. README.md gives
the workloads, the checks and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

# One process, one thread: numpy's BLAS must not start workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
clock = time.perf_counter

# Side work in the gaps of the home workload's rounds: a piece of each kind
# runs every `period` gaps. The CLI is a process of 1.5 to 2.5 s, so it runs
# least often.
PERIODS = {
    "plan": {"query": 1, "verify": 2, "cli": 6},
    "query": {"plan": 2, "verify": 1, "cli": 6},
    "verify": {"plan": 2, "query": 1, "cli": 4},
}
SIDE_PIECE_ROUNDS = {"query": 5}  # a side query round is only 1000 queries


def import_program() -> float:
    """Import vbspool from the checkout; returns the seconds it took."""
    src = ROOT / "src"
    if not (src / "vbspool" / "__init__.py").is_file():
        raise SystemExit(f"error: vbspool sources not found under {src}")
    sys.path.insert(0, str(src))
    t0 = clock()
    import vbspool  # noqa: F401
    return clock() - t0


def run_rounds(home, sides: dict, run, seconds: float = 0.0,
               rounds: int | None = None, cli=None) -> tuple[int, float]:
    """Whole home rounds until `seconds` have passed, or exactly `rounds`,
    with side pieces in the gaps; returns the rounds run and their time."""
    periods = PERIODS[home.name]
    steps = gaps = done = 0
    t0 = clock()
    while (done < rounds) if rounds is not None else (clock() - t0 < seconds):
        for _ in home.round(run):
            steps += 1
            if steps % home.gap_every:
                continue
            gaps += 1
            for name, side in sides.items():
                if gaps % periods[name] == 0:
                    for _ in range(SIDE_PIECE_ROUNDS.get(name, 1)):
                        side.run_round(run)
            if cli is not None and gaps % periods["cli"] == 0:
                cli.cli_round()
        done += 1
    elapsed = clock() - t0
    # every kind of side work runs at least once, however short the run
    for side in sides.values():
        if not side.infos:
            side.run_round(run)
    if cli is not None and not cli.cli_times:
        cli.cli_round()
    return done, elapsed


def cli_probe(runs: int = 3) -> dict:
    """The CLI's cost as processes: a bare interpreter, then the import of
    vbspool.cli and one command, both timed inside the process."""
    from workloads import program_env

    code = (
        "import io, json, sys, time\n"
        "from contextlib import redirect_stdout\n"
        "t0 = time.perf_counter()\n"
        "import vbspool.cli\n"
        "t1 = time.perf_counter()\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    rc = vbspool.cli.main(sys.argv[1:])\n"
        "t2 = time.perf_counter()\n"
        "print(json.dumps([t1 - t0, t2 - t1, rc]))\n"
    )
    argv = ["blocking", "--m", "30", "--k", "28", "--n", "600", "--a", "17.8",
            "--format", "json"]
    bare, imports, commands = [], [], []
    for _ in range(runs):
        t0 = clock()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT, timeout=60)
        bare.append(clock() - t0)
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, check=True, cwd=ROOT, env=program_env(),
                              timeout=120)
        t_import, t_command, rc = json.loads(proc.stdout.splitlines()[-1])
        if rc != 0:
            raise RuntimeError(f"vbspool {' '.join(argv)} returned {rc}")
        imports.append(t_import)
        commands.append(t_command)
    return {
        "cli.interpreter_ms": (statistics.median(bare) * 1e3, "ms"),
        "cli.import_ms": (statistics.median(imports) * 1e3, "ms"),
        "cli.command_ms": (statistics.median(commands) * 1e3, "ms"),
    }


def layer_metrics(parts) -> dict:
    """Per-layer figures from tracer snapshots, each given with the weight
    its totals count with: set-up once, the traced rounds per round."""

    def total(name, idx, layer=False):
        return sum(
            w * st[idx]
            for snap, w in parts
            for key, st in snap["stats"].items()
            if (key.startswith(name + ".") if layer else key == name))

    def count(name):
        return sum(w * snap["counters"].get(name, 0) for snap, w in parts)

    def pct(name, q):
        values = array("d")
        for snap, _ in parts:
            values.frombytes(snap["samples"][name])
        values = sorted(values)
        return values[min(len(values) - 1, int(q * len(values)))] * 1e6 if values else 0.0

    enumerate_s = total("oracle.enumerate_states", 1)
    return {
        "analytic.table_build_s": (total("analytic.table_build", 1), "s"),
        "analytic.table_columns": (count("analytic.table_columns"), "count"),
        "analytic.table_mb_computed": (count("analytic.table_mb_computed"), "MB"),
        "analytic.blocking_calls": (total("analytic.compute_blocking", 0), "count"),
        "analytic.blocking_us_p50": (pct("analytic.compute_blocking", 0.5), "us"),
        "analytic.blocking_us_p99": (pct("analytic.compute_blocking", 0.99), "us"),
        "model.config_us_p50": (pct("model.PoolConfig", 0.5), "us"),
        "planner.sweep_points": (count("planner.sweep_points"), "count"),
        "planner.sweep_s": (total("planner.dimension_pool", 1), "s"),
        "planner.self_s": (total("planner", 2, layer=True), "s"),
        "erlang.calls": (total("erlang", 0, layer=True), "count"),
        "erlang.s": (total("erlang", 2, layer=True), "s"),
        "oracle.states": (count("oracle.states"), "count"),
        "oracle.rate_entries": (count("oracle.rate_entries"), "count"),
        "oracle.enumerate_s": (enumerate_s, "s"),
        "oracle.generator_s": (total("oracle.build_generator", 1) - enumerate_s, "s"),
        "oracle.solve_s": (total("oracle.solve_stationary", 1), "s"),
        "oracle.solve_flops_computed": (count("oracle.solve_flops_computed"), "flop"),
        "oracle.dense_mb_computed": (count("oracle.dense_mb_computed"), "MB"),
        "simulator.sessions": (count("simulator.sessions"), "count"),
        "simulator.s": (total("simulator", 2, layer=True), "s"),
    }


def setup_probe(workload: str, seed: int) -> float:
    """Set-up of a fresh process: the import plus the home workload's
    table warm-up."""
    t_import = import_program()
    from workloads import WORKLOADS, Run

    work = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), side=False)
    t0 = clock()
    work.setup(Run())
    return t_import + clock() - t0


def probe_setups(workload: str, seed: int, runs: int) -> list[float]:
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, check=True, cwd=ROOT, timeout=170)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("plan", "query", "verify"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
        return 0

    t_import = import_program()  # before the benchmark's modules import numpy
    import reference as ref
    from spans import Tracer
    from workloads import WORKLOADS, Plan, Query, Run

    traced = bool(args.trace)
    tracer = Tracer() if traced else None
    run = Run(tracer)
    home = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"), side=False)
    # side work feeds only end-to-end metrics; the traced pass runs the
    # home rounds alone, so each per-layer figure is the home work's
    sides = {} if traced else {
        name: W(random.Random(f"{name}-side:{args.seed}"), side=True)
        for name, W in WORKLOADS.items() if name != args.workload}
    query = home if isinstance(home, Query) else sides.get("query")

    # set-up: the import, then the home workload's tables
    if traced:
        tracer.install()
    t0 = clock()
    home.setup(run)
    t_setup = t_import + clock() - t0
    run.tracer = None
    parts = []
    if traced:
        tracer.uninstall()
        parts.append((tracer.snapshot(), 1.0))
        tracer.reset()
    for side in sides.values():
        side.setup(run)
    if query is not None:
        query.make_stream()

    metrics = {}
    if traced:
        # the same home rounds untraced, then traced; the CLI runs as
        # processes and is timed by cli_probe instead
        rounds, t_plain = run_rounds(home, sides, run, seconds=args.seconds)
        run.tracer = tracer
        tracer.install()
        tracer.recording = True
        _, t_traced = run_rounds(home, sides, run, rounds=rounds)
        tracer.uninstall()
        parts.append((tracer.snapshot(), 1.0 / rounds))
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics.update(layer_metrics(parts))
        metrics.update(cli_probe())
        metrics["trace.overhead_s"] = (t_traced - t_plain, "s")
    else:
        run_rounds(home, sides, run, seconds=args.seconds, cli=query)
        rss = (home.peak_rss_mb() if isinstance(home, Plan)
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        samples = {"setup_s": ([t_setup] + probe_setups(args.workload, args.seed, 2), "s")}
        for work in [home, *sides.values()]:
            samples.update(work.samples())
        OUT.mkdir(exist_ok=True)
        (OUT / f"samples-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({k: v[0] for k, v in samples.items()}) + "\n")
        # the median of a run's samples: the machine's CPUs are shared, and
        # the same work runs in fast and slow phases of a few seconds each;
        # the median holds while either phase has under half the samples,
        # where a quartile flips with the share of the minority phase
        metrics = {name: (statistics.median(values), unit)
                   for name, (values, unit) in samples.items()}
        metrics["peak_rss_mb"] = (rss, "MB")

    # checks: every round returned the same results as its workload's first,
    # which the reference accepts except for the home operations counted failed
    errors = list(query.cli_errors) if query is not None else []
    for work in [home, *sides.values()]:
        if not work.same:
            errors.append(f"{work.name}: rounds returned different results")
    failed_ops = [(op, v) for op, v in zip(home.ops, home.check(home.first)) if v]
    for side in sides.values():
        errors += [f"{side.name} (side) {op}: {v}"
                   for op, v in zip(side.ops, side.check(side.first)) if v]
    # the checks catch a doctored result, and the reference matches exact integers
    for label, i, bad in home.doctored(home.first):
        results = list(home.first)
        results[i] = bad
        if home.check(results, only={i})[i] is None:
            errors.append(f"{home.name}: the checks missed a doctored result ({label})")
    errors += [f"reference: {e}" for e in ref.self_test()]

    for op, v in failed_ops:
        print(f"failed {home.name} {op}: {v}")
    for e in errors:
        print(f"error: {e}")
    rounds = len(home.infos)
    line = json.dumps({
        "correct": not errors,
        "attempted": rounds * len(home.ops),
        "failed": rounds * len(failed_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
