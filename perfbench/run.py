#!/usr/bin/env python3
"""Benchmark of tilesim: runs one workload, timed from outside, with every
answer checked.

    python3 perfbench/run.py --workload sea_pipeline --seed 1 --seconds 20 --trace 0

Run from anywhere; tilesim is imported from the src directory next to this
one.  The workload repeats for --seconds seconds (at least twice; the last
pass may run past the deadline) and every pass is checked by the workload's
answer gates.

--trace 0 prints the end-to-end metrics: the medians of per-pass wall and
CPU time, the process's peak resident memory, and the median set-up time
over several fresh processes.  Pass times are given at a reference machine
speed: each pass is scaled by REF_CALIBRATION_S over the time of a fixed
calibration kernel, averaged over its runs just before and just after the
pass (see calibrate).  The raw times are printed and recorded too.

--trace 1 makes one pass under tracemalloc, then alternates untraced passes
with span-traced ones for the rest of the time, and prints the per-layer
metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count answer gates.
A full record, with provenance, raw samples and any spans, goes to
perfbench/results/.
"""

import argparse
import gc
import json
import os
from pathlib import Path
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

from tracing import NullTracer, Tracer, span_table, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("sea_pipeline", "halfplane_search", "comb_homs")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
# calibrate() takes about this long on the machine the benchmark was
# written on; times at reference speed are scaled to it.
REF_CALIBRATION_S = 0.07
CALIBRATION_REPEATS = 3

END_TO_END = {"wall_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}
LAYERS = ("geometry", "tilesets", "sat", "graphs", "simulation", "reduction")
# Per-layer metric -> unit.  A name ending in _s is the summed self time of
# the spans named by the rest, and one ending in .peak_mb a tracemalloc
# peak; trace.overhead_s is computed apart.  The others are counts the
# workloads add.
PER_LAYER = {
    "geometry.window_s": "s", "geometry.points": "count",
    "tilesets.scopes_s": "s", "tilesets.scopes": "count",
    "tilesets.tiling_ok_s": "s",
    "sat.encode_s": "s", "sat.load_s": "s", "sat.vars": "count",
    "sat.clauses": "count", "sat.solve_s": "s", "sat.learned": "count",
    "sat.decode_s": "s", "sat.forced_s": "s", "sat.forced_points": "count",
    "sat.forced_singletons": "count", "sat.exact_count_s": "s",
    "graphs.enumerate_homs_s": "s", "graphs.homs": "count",
    "simulation.decorate_s": "s", "simulation.apply_s": "s",
    "simulation.out_vertices": "count", "simulation.incomplete": "count",
    "simulation.trusted_ratio": "ratio",
    "reduction.reduce_s": "s", "reduction.decode_s": "s",
    "reduction.star_s": "s", "reduction.grid_points": "count",
}
PER_LAYER.update({layer + ".peak_mb": "MB" for layer in LAYERS})
PER_LAYER["trace.overhead_s"] = "s"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("bench", "tiny"), default="bench",
                    help="tiny windows, for the self-tests")
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def calibrate():
    """Seconds for a fixed kernel of the work tilesim spends its time on:
    building tuples, lists and dicts, hashing, sorting and deep chains of
    Python calls.  The median of CALIBRATION_REPEATS runs.

    On a shared host this kernel and the workloads slow down together, by
    tens of percent within minutes, so dividing by its time in the same run
    removes most of the machine's drift from the end-to-end times.
    """
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        total = 0
        for _ in range(2):
            table = {}
            for i in range(20000):
                table[(i, i ^ 0x5BD1)] = [i, str(i)]
            for key, val in sorted(table.items()):
                total += key[1] + val[0]
        for _ in range(300):
            total += len(_chain(300, []))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _chain(depth, acc):
    if depth == 0:
        return acc
    return _chain(depth - 1, acc + [depth] if depth % 7 == 0 else acc)


def timed_setup(name, seed, size):
    """Seconds to import tilesim and build what the workload needs."""
    start = time.perf_counter()
    import workloads
    state = workloads.WORKLOADS[name].setup(seed, size)
    return time.perf_counter() - start, state


def probe_setup(args):
    """timed_setup in a fresh interpreter, so the import is paid again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=SETUP_TIMEOUT_S)
    return float(done.stdout.split()[-1])


def measure(wl, state, seconds, tracers):
    """Run passes until the deadline; tracers(i) gives pass i's tracer.

    Returns one record per pass, with the mean calibration time around
    it.  A pass that raises a tilesim failure counts as one failed gate and
    ends the measurement.
    """
    import workloads
    passes = []
    calibration = []
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        tracer = tracers(len(passes))
        gc.collect()
        calibration.append(calibrate())
        gc.collect()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with tracer.iteration(len(passes)):
                out = wl.run(state, tracer)
            error = None
        except workloads.PROGRAM_FAILURES as exc:
            error = "%s: %s" % (type(exc).__name__, exc)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        gates = [("raised " + error, False)] if error else wl.check(state, out)
        out = None
        passes.append({"wall_s": wall, "cpu_s": cpu,
                       "traced": not isinstance(tracer, NullTracer),
                       "gates": len(gates),
                       "failed_gates": [g for g, ok in gates if not ok]})
        if error:
            break
    gc.collect()
    calibration.append(calibrate())
    for p, c in zip(passes, around(calibration)):
        p["calibration_s"] = c
    return passes


def around(calibration):
    """Mean of each pair of neighbouring calibration times: the machine
    speed during the pass run between them."""
    return [(a + b) / 2 for a, b in zip(calibration, calibration[1:])]


def memory_pass(wl, state):
    """One pass under tracemalloc: per-layer peak bytes above the start."""
    import workloads
    tracer = Tracer(memory=True)
    tracemalloc.start()
    try:
        with tracer.iteration(0):
            out = wl.run(state, tracer)
        gates = wl.check(state, out)
    except workloads.PROGRAM_FAILURES as exc:
        gates = [("raised %s under tracemalloc" % type(exc).__name__, False)]
    finally:
        tracemalloc.stop()
    peaks = {}
    for s in tracer.spans:
        if "peak_bytes" in s:
            layer = s["name"].split(".")[0]
            peaks[layer] = max(peaks.get(layer, 0), s["peak_bytes"])
    return peaks, gates, tracer.spans


def layer_metrics(tracer, passes, peaks):
    """Per-layer metrics: medians over the span-traced passes."""
    per_pass = {run: dict(counts) for run, counts in tracer.counts.items()}
    own = self_times(tracer.spans)
    for s in tracer.spans:
        if s["parent"] is not None:
            row = per_pass[s["run"]]
            key = s["name"] + "_s"
            row[key] = row.get(key, 0.0) + own[s["id"]]
    metrics = {name: median([row.get(name, 0) for row in per_pass.values()])
               for name in PER_LAYER}
    for layer in LAYERS:
        metrics[layer + ".peak_mb"] = peaks.get(layer, 0) / 2 ** 20
    traced = [p["wall_s"] for p in passes if p["traced"]]
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    return metrics


def at_reference(times, calibration):
    """Median pass time at reference speed: each pass is scaled by the
    calibration time around it."""
    return median([REF_CALIBRATION_S * t / c
                   for t, c in zip(times, calibration)])


def median(values):
    """The median, or 0 when a pass that raised left no samples."""
    return statistics.median(values) if values else 0


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, recursion_limit):
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "recursion_limit": recursion_limit,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tilesim" / "__init__.py").is_file():
        print("perfbench: no tilesim sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        print(repr(timed_setup(args.workload, args.seed, args.size)[0]))
        return 0

    recursion_limit = sys.getrecursionlimit()
    setup = []
    if not args.trace:
        setup = [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    seconds, state = timed_setup(args.workload, args.seed, args.size)
    setup.append(seconds)
    import workloads
    wl = workloads.WORKLOADS[args.workload]

    record = {"provenance": provenance(args, recursion_limit)}
    if args.trace:
        start = time.perf_counter()
        peaks, mem_gates, mem_spans = memory_pass(wl, state)
        tracer = Tracer()
        plain = NullTracer()
        passes = measure(wl, state,
                         args.seconds - (time.perf_counter() - start),
                         lambda i: tracer if i % 2 else plain)
        metrics = layer_metrics(tracer, passes, peaks)
        passes.append({"memory_pass": True, "gates": len(mem_gates),
                       "failed_gates": [g for g, ok in mem_gates if not ok]})
        units = PER_LAYER
        record["spans"] = tracer.spans
        record["span_table"] = span_table(tracer.spans)
        record["memory_spans"] = mem_spans
    else:
        passes = measure(wl, state, args.seconds, lambda i: NullTracer())
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        calibration = [p["calibration_s"] for p in passes]
        metrics = {
            "wall_ref_s": at_reference([p["wall_s"] for p in passes],
                                       calibration),
            "cpu_ref_s": at_reference([p["cpu_s"] for p in passes],
                                      calibration),
            "peak_rss_mb": rss,
            "setup_s": median(setup),
        }
        record["raw"] = {
            "wall_s": median([p["wall_s"] for p in passes]),
            "cpu_s": median([p["cpu_s"] for p in passes]),
            "calibration_s": median(calibration),
        }
        units = END_TO_END
    if sys.getrecursionlimit() != recursion_limit:
        raise RuntimeError("the recursion limit changed during the run")

    attempted = sum(p["gates"] for p in passes)
    failed = sum(len(p["failed_gates"]) for p in passes)
    record.update({"setup_s": setup, "passes": passes, "metrics": metrics,
                   "attempted": attempted, "failed": failed})
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / ("%s-seed%d-trace%d.json"
                      % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1) + "\n")

    timed = [p for p in passes if "wall_s" in p]
    print("%s seed %d: %d passes, record in %s"
          % (args.workload, args.seed, len(timed), path.relative_to(ROOT)))
    for name, value in metrics.items():
        print("  %-26s %14.6f %s" % (name, value, units[name]))
    for name, value in record.get("raw", {}).items():
        print("  %-26s %14.6f s" % ("raw " + name, value))
    print("  %-26s %7d / %-6d gates" % ("checks_failed", failed, attempted))
    for gate in sorted({g for p in passes for g in p["failed_gates"]}):
        print("  FAILED " + gate)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
