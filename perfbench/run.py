"""taulab benchmark: one workload, run as a single-client closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload series|scan|algebra --seed N --seconds S --trace 0|1

Operations run back to back, one at a time; the only concurrency is the
``density --workers 2`` operation of ``algebra``.  Every output is
checked against an oracle, and operations of one group must give the
same output every time; a wrong output counts as a failed operation and
never stops the run.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json.  The
run is split over CHILDREN fresh processes in turn, each timing its own
set-up and then carrying the workload's operation sequence on for S /
CHILDREN seconds (one operation at least), because a process keeps the
speed it starts with for many seconds on a shared host.  Timings are
medians over the run, scaled to a fixed machine speed (see speed.py);
wall-clock figures are printed beside them.

``--trace 1`` runs in one process: one untraced reference cycle, then
whole traced cycles (see tracer.py) until S seconds have passed.  It
reports the per-layer metrics as medians over the traced cycles, each a
per-cycle total in wall seconds, and writes the spans to
``perfbench/out/``.

The environment block and per-operation sample counts go to stdout
before the result; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
taulab sources under ``src/`` the script exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import multiprocessing
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

from speed import Speed
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILDREN = 3
# set-up is timed in every child, and in extra fresh processes while fewer
# than SETUP_MIN_SECONDS are spent, so that a cheap set-up's median is steady
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_SAMPLES = 11
CHILD_TIMEOUT = 170
MAX_SPANS = 100_000
ROW_OPS = ("summary", "csv", "deep")
LAYER_FIELDS = {"calls": 0, "s": 1, "self_s": 2}


@dataclass
class OpResult:
    name: str
    start: float
    end: float
    seconds: float  # wall seconds, less the speed sampler's own time
    problem: str | None
    digest: str | None
    scaled: float = 0.0  # seconds at reference speed


def run_op(ctx, op, speed: Speed, tracer=None) -> OpResult:
    """Time one operation's work, then check its output outside the timing."""
    gc.collect()
    problem = result = digest = None
    if tracer is not None:
        tracer.install()
        tracer.begin_op(op.name)
    if op.parallel:
        speed.pause()
    sampled = speed.spent
    start = time.perf_counter()
    try:
        result = op.work(ctx)
    except Exception:  # a failing operation is counted, and the run goes on
        problem = traceback.format_exc(limit=3).strip().splitlines()[-1]
        traceback.print_exc()
    end = time.perf_counter()
    seconds = end - start - (speed.spent - sampled)
    if op.parallel:
        speed.resume()
    if tracer is not None:
        tracer.end_op()
        left = tracer.uninstall()
        if left:
            problem = problem or f"bindings not restored after tracing: {left}"
    if problem is None:
        try:
            problem = op.check(ctx, result)
            digest = op.digest(result)
        except Exception:  # a broken output must not stop the run either
            problem = traceback.format_exc(limit=3).strip().splitlines()[-1]
            traceback.print_exc()
    if problem:
        print(f"FAIL {op.name}: {problem}", file=sys.stderr)
    return OpResult(op.name, start, end, seconds, problem, digest)


def mark_mismatches(workloads, results: list[OpResult]) -> None:
    """Fail every result whose output differs from its group's first output."""
    first: dict[str, str] = {}
    for r in results:
        if r.problem is not None:
            continue
        group = workloads.OPS[r.name].group or r.name
        if first.setdefault(group, r.digest) != r.digest:
            r.problem = f"output differs from the first {group} output"
            print(f"FAIL {r.name}: {r.problem}", file=sys.stderr)


def timed_setup(workloads, workload, seed: int):
    """Import, sieve and warm up under the speed sampler; (context, scaled seconds)."""
    speed = Speed()
    ctx = workloads.Context(seed)
    speed.start()
    sampled = speed.spent
    start = time.perf_counter()
    workloads.setup(ctx, workload)
    end = time.perf_counter()
    busy = end - start - (speed.spent - sampled)
    speed.stop()
    return ctx, speed.scale(start, end, busy)


def spawn(args, *extra: str) -> dict:
    """Run this script in a fresh interpreter; return its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), *extra],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True,
    )
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def child(ctx, workloads, workload, args, setup_s: float) -> dict:
    """Carry the operation sequence on from --start for --seconds."""
    sequence = itertools.islice(workload.sequence(args.seed), args.start, None)
    speed = Speed()
    speed.start()
    results: list[OpResult] = []
    deadline = time.perf_counter() + args.seconds
    try:
        for name in sequence:
            if results and time.perf_counter() >= deadline:
                break
            results.append(run_op(ctx, workloads.OPS[name], speed))
    finally:
        speed.stop()
    for r in results:
        r.scaled = speed.scale(r.start, r.end, r.seconds)
    return {
        "environment": environment(ctx, args),
        "setup_s": setup_s,
        "next": args.start + len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "speed_loop_median_s": statistics.median(speed.loops),
        "ops": [asdict(r) for r in results],
    }


def end_to_end(workloads, workload, args):
    """Children in turn until CHILDREN ran and every reported operation has a sample."""
    children: list[dict] = []
    start = 0
    while len(children) < CHILDREN or (
        not set(workload.slots) <= {r["name"] for c in children for r in c["ops"]}
        and len(children) < CHILDREN + 3
    ):
        got = spawn(args, "--child", "--start", str(start), "--seconds", str(args.seconds / CHILDREN))
        children.append(got)
        start = got["next"]
    setup_samples = [c["setup_s"] for c in children]
    while sum(setup_samples) < SETUP_MIN_SECONDS and len(setup_samples) < SETUP_MAX_SAMPLES:
        setup_samples.append(spawn(args, "--setup-probe")["setup_s"])

    results = [OpResult(**r) for c in children for r in c["ops"]]
    mark_mismatches(workloads, results)
    values = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        "ok_ops_frac": 1 - sum(r.problem is not None for r in results) / len(results),
    }
    for i, name in enumerate(workload.slots):
        values[f"op{i + 1}_s"] = statistics.median(r.scaled for r in results if r.name == name)
    print(json.dumps({"environment": children[0]["environment"]}))
    print(json.dumps({
        "slots": {f"op{i + 1}_s": name for i, name in enumerate(workload.slots)},
        "setup_samples_s": setup_samples,
        "speed_loop_median_s": [c["speed_loop_median_s"] for c in children],
        "ops": summarize(results, scaled=True),
    }))
    return values, results, True


@dataclass
class Cycle:
    stats: dict
    results: list[OpResult]
    rows: dict


def layer_value(name: str, cycle: Cycle, overhead: tuple[float, float]):
    if name == "trace.overhead_s":
        return overhead[0]
    if name == "trace.overhead_frac":
        return overhead[1]
    if name == "trace.spans":
        return sum(calls for calls, _, _ in cycle.stats.values()) + len(cycle.results)
    head, field = name.rsplit(".", 1)
    if field in ROW_OPS:
        kind = head.split(".", 1)[1]
        counts = cycle.rows.get(f"scan_{field}", {})
        rows = sum(counts.values())
        if kind == "rows":
            return rows
        if kind == "exact_share":
            return counts.get("exact", 0) / rows if rows else 0.0
        return counts.get(kind[len("rows_"):], 0)
    return cycle.stats[head][LAYER_FIELDS[field]]


def per_layer(ctx, workloads, workload, args):
    """One untraced reference cycle, then whole traced cycles until the deadline."""
    rnd = random.Random(args.seed)
    speed = Speed()  # never started: traced timings stay in wall seconds
    deadline = time.perf_counter() + args.seconds
    reference = [run_op(ctx, workloads.OPS[name], speed) for name in workload.cycle(rnd)]
    tracer = Tracer({name: ctx.m[name] for name in workloads.MODULES}, MAX_SPANS)
    tracer.prepare()
    current = {"op": None, "rows": {}}

    def observe_scan(result) -> None:
        current["rows"][current["op"]] = Counter(row.status for row in result[0])

    tracer.observers["scans.threshold_scan"] = observe_scan
    cycles: list[Cycle] = []
    while not cycles or time.perf_counter() < deadline:
        tracer.reset_stats()
        current["rows"] = {}
        ops = []
        for name in workload.cycle(rnd):
            current["op"] = name
            ops.append(run_op(ctx, workloads.OPS[name], speed, tracer))
        cycles.append(Cycle(tracer.snapshot(), ops, current["rows"]))
    results = reference + [r for c in cycles for r in c.results]
    mark_mismatches(workloads, results)

    correct = True
    calls = [{k: v[0] for k, v in c.stats.items()} for c in cycles]
    if any(x != calls[0] for x in calls) or any(c.rows != cycles[0].rows for c in cycles):
        print("FAIL exact repeat: call counts or scan row statuses differ between cycles",
              file=sys.stderr)
        correct = False
    if any("scan_summary" in c.rows and c.rows["scan_summary"] != c.rows.get("scan_csv")
           for c in cycles):
        print("FAIL scan row statuses differ between summary and CSV", file=sys.stderr)
        correct = False

    untraced = sum(r.seconds for r in reference)
    traced = statistics.median(sum(r.seconds for r in c.results) for c in cycles)
    overhead = (traced - untraced, (traced - untraced) / untraced)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = {
        m["name"]: (statistics.median_low if m["unit"] == "count" else statistics.median)(
            layer_value(m["name"], c, overhead) for c in cycles)
        for m in spec["per_layer"]
    }
    env = environment(ctx, args)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "reference_cycle_s": untraced, "traced_cycle_s": traced, "traced_cycles": len(cycles),
        "spans_kept": len(tracer.spans), "spans_total": tracer.spans_total,
        "ops": summarize(results, scaled=False),
    }))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl", {"environment": env})
    return values, results, correct


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(ctx, args) -> dict:
    import mpmath

    try:
        import gmpy2  # noqa: F401

        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {
        "python": platform.python_version(),
        "gmpy2_importable": has_gmpy2,
        "multiply_backend": "int" if ctx.m["hecke"].mpz is int else "gmpy2.mpz",
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }


def summarize(results: list[OpResult], scaled: bool) -> dict:
    """Per operation: sample count, and median, min and max of wall (and scaled) seconds."""
    by_op: dict[str, list[OpResult]] = {}
    for r in results:
        by_op.setdefault(r.name, []).append(r)
    out = {}
    for name, rs in by_op.items():
        out[name] = {"n": len(rs)}
        fields = {"wall_s": "seconds", "scaled_s": "scaled"} if scaled else {"wall_s": "seconds"}
        for key, attr in fields.items():
            t = [getattr(r, attr) for r in rs]
            out[name][key] = [statistics.median(t), min(t), max(t)]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("series", "scan", "algebra"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one child of a --trace 0 run, or a set-up timing alone
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--start", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "taulab" / "__init__.py").is_file():
        print(f"error: taulab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.trace == 0 and not (args.child or args.setup_probe):
        values, results, correct = end_to_end(workloads, workload, args)
        wanted = "end_to_end"
    else:
        ctx, setup_s = timed_setup(workloads, workload, args.seed)
        if not Path(ctx.m["hecke"].__file__).resolve().is_relative_to(SRC):
            print(f"error: taulab imported from {ctx.m['hecke'].__file__}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.child:
            print(json.dumps(child(ctx, workloads, workload, args, setup_s)))
            return 0
        values, results, correct = per_layer(ctx, workloads, workload, args)
        wanted = "per_layer"

    for proc in multiprocessing.active_children():
        proc.join()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failed = sum(r.problem is not None for r in results)
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[wanted]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
