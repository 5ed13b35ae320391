"""Benchmark of treeverse: four workloads, each run in a fresh process.

    python3 bench/run.py --workload embed-random --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones (measured with tracing off); with
`--trace 1` they are the per-layer ones from a traced run.  Times are in
reference seconds: each wall time scaled by a calibration loop run just
before and after it (calibration.py).  Raw samples, wall times included, and
the span file go to `bench/out/`.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration
import tracer as tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PACKAGE = "treeverse"
MODULES = ("tree_core", "graph_gen", "balanced_trees", "decomposition",
           "embedder", "oracle", "analytics", "cli")
MIN_TAIL_SAMPLES = 40   # below this a tail percentile would be no tail
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile
CHILD_TIMEOUT_S = 900


class Program:
    """The imported package modules, looked up by name at call time."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))


def import_program() -> Program:
    """Import the package afresh from the checkout's `src/`."""
    for key in [k for k in sys.modules
                if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    tv = Program()
    where = Path(sys.modules[PACKAGE].__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"error: {PACKAGE} was imported from {where}, "
                         f"not from {ROOT / 'src'}")
    return tv


def timed(op, tracer=None, op_id=None):
    """Run one operation between two calibration loops, traced when a tracer
    is given.  Returns its wall seconds, its reference seconds (see
    calibration.py) and its output, or the exception it raised."""
    before = calibration.loop_seconds()
    if tracer is not None:
        tracer.op = op_id
        tracer.install()
    try:
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        wall = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, wall * calibration.scale(before, calibration.loop_seconds()), out


def run_passes(ops, seconds, min_passes, tracer=None):
    """Whole passes over `ops`; after `min_passes`, a new pass starts only
    while one more pass of the last one's length still ends within
    `seconds`.  With a tracer, each operation runs untraced and traced back
    to back, in alternating order, so that a drift in machine speed cancels
    out of the tracing overhead.  Garbage is collected and outputs are
    checked outside the timed region.  Returns (passes, untraced reference
    latencies, traced reference latencies, untraced wall latencies, messages
    of the runs that raised, problems found in the other outputs)."""
    plain, traced, walls, failures, problems = [], [], [], [], []
    passes = 0
    start = perf_counter()
    gc.disable()
    try:
        while True:
            pass_start = perf_counter()
            for i, op in enumerate(ops):
                if tracer is None:
                    order = (None,)
                else:
                    order = (None, tracer) if i % 2 == 0 else (tracer, None)
                for tr in order:
                    gc.collect()
                    wall, reference, out = timed(op, tr, f"{passes}:{i}")
                    (plain if tr is None else traced).append(reference)
                    if tr is None:
                        walls.append(wall)
                    if isinstance(out, Exception):
                        failures.append(f"{op.label}: raised {out!r}")
                    else:
                        problems.extend(f"{op.label}: {p}" for p in op.check(out))
                    del out
            passes += 1
            now = perf_counter()
            if passes >= min_passes and (now - start) + (now - pass_start) > seconds:
                break
    finally:
        gc.enable()
    return passes, plain, traced, walls, failures, problems


def nearest_rank(sorted_values, pct: int) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def tail_plan(n_ops: int) -> tuple:
    """(minimum passes, tail percentile): enough passes for at least
    MIN_TAIL_SAMPLES operations, and the highest whole percentile that leaves
    TAIL_BEYOND samples beyond it at that minimum."""
    min_passes = math.ceil(MIN_TAIL_SAMPLES / n_ops)
    n_min = min_passes * n_ops
    return min_passes, math.floor(100 * (n_min - TAIL_BEYOND) / n_min)


def setup_phase(workload, repeats: int, tracer_factory=None):
    """Import and set up `repeats` times, each between two calibration
    loops; keep the last.  Returns (program, state, reference seconds of
    each repeat, wall seconds of each repeat, tracer or None)."""
    times, walls = [], []
    tv = state = tracer = None
    for _ in range(repeats):
        tv = state = None
        gc.collect()
        before = calibration.loop_seconds()
        t0 = perf_counter()
        tv = import_program()
        if tracer_factory is not None:
            tracer = tracer_factory()
            tracer.install()
            tracer.op = "setup"
        state = workload.setup(tv)
        walls.append(perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
        times.append(walls[-1] * calibration.scale(before, calibration.loop_seconds()))
    return tv, state, times, walls, tracer


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    if trace:
        tv, state, setup_times, setup_walls, tracer = setup_phase(
            workload, 1, tracing.Tracer)
    else:
        tv, state, setup_times, setup_walls, tracer = setup_phase(
            workload, workload.setup_repeats)
    problems = [f"set-up: {p}" for p in workload.check_setup(tv, state)]
    ops = workload.make_ops(tv, state, random.Random(f"{name}:{seed}"))
    min_passes, tail_pct = tail_plan(len(ops))
    # What set-up built stays alive for the whole run; keep it out of the
    # collections between operations, which otherwise rescan the host
    # graphs every time (about 0.1 s per collection on embed-random).
    gc.collect()
    gc.freeze()

    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "ops": [op.label for op in ops],
              "setup_s": setup_times, "setup_wall_s": setup_walls}
    OUT.mkdir(exist_ok=True)
    if not trace:
        passes, lat, _, walls, failures, more = run_passes(ops, seconds, min_passes)
        problems += more
        metrics = timing_metrics(setup_times, lat, tail_pct)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        wall_metrics = timing_metrics(setup_walls, walls, tail_pct)
        print("wall time: " + " ".join(f"{k}={v:.4g}"
                                       for k, (v, _u) in wall_metrics.items()))
        record.update(latencies_s=lat, wall_latencies_s=walls,
                      wall_metrics=wall_metrics, tail_percentile=tail_pct)
    else:
        passes, plain, traced, walls, failures, more = run_passes(
            ops, seconds, 1, tracer)
        problems += more
        metrics = layer_metrics(tracer.spans, ops, passes, sum(plain), sum(traced))
        tracer.write(OUT / f"{name}-seed{seed}-spans.jsonl.gz")
        lat = plain + traced
        record.update(latencies_s=plain, traced_latencies_s=traced,
                      wall_latencies_s=walls)

    # `correct` speaks of the operations that did not fail
    result = {
        "correct": not problems,
        "attempted": len(lat),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(passes=passes, failures=failures, problems=problems,
                  result=result)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    for p in failures[:10]:
        print(f"FAILED {p}")
    for p in problems[:20]:
        print(f"PROBLEM {p}")
    print(f"{name}: seed={seed} ops/pass={len(ops)} passes={passes} "
          f"samples={len(lat)} set-up repeats={len(setup_times)}"
          + ("" if trace else f" tail=p{tail_pct}"))
    return result


def timing_metrics(setup_times, lat, tail_pct) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (nearest_rank(sorted(lat), tail_pct) * 1e3, "ms"),
    }


def layer_metrics(spans, ops, passes, plain_s, traced_s) -> dict:
    """Per operation of one pass, with the traced set-up charged to that pass."""
    n = len(ops)
    op_ids = {f"{p}:{i}" for p in range(passes) for i in range(n)}
    setup = tracing.layer_totals(spans, {"setup"})
    run = tracing.layer_totals(spans, op_ids)
    out = {}
    for metric, (unit, _kind, _names) in tracing.LAYER_METRICS.items():
        out[metric] = ((setup[metric] + run[metric] / passes) / n, unit)
    decomp = tracing.decomposition_time_by_op(spans)
    sizes = [ops[i].size for p in range(passes) for i in range(n)]
    times = [decomp.get(f"{p}:{i}", 0.0) for p in range(passes) for i in range(n)]
    out["decomposition.size_exponent"] = (tracing.size_exponent(sizes, times), "1")
    out["trace.overhead_s"] = ((traced_s - plain_s) / (passes * n), "s")
    out["trace.overhead_pct"] = (100 * (traced_s - plain_s) / plain_s, "%")
    return out


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results, code = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        results[name] = json.loads(lines[-1])
    if code == 0:
        print(json.dumps(results))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.pop("TREEVERSE_JOBS", None)
    sys.path.insert(0, str(ROOT / "src"))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
