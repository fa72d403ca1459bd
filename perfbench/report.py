#!/usr/bin/env python3
"""Run every workload once and print its metrics side by side.

    python3 perfbench/report.py --seed 1 --seconds 30 [--trace 1]

Each workload runs in its own process through perfbench/run.py, so peak
memory is per workload.  Untraced runs also show the raw times behind the
reference-speed ones.  checks_failed is failed answer gates over gates
attempted.
"""

import argparse
import json
from pathlib import Path
import subprocess
import sys

import run

HERE = Path(__file__).resolve().parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    results = {}
    for name in run.WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        if done.returncode:
            sys.stderr.write(done.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
        if not args.trace:
            record = json.loads((run.RESULTS / (
                "%s-seed%d-trace0.json" % (name, args.seed))).read_text())
            for key, value in record["raw"].items():
                results[name]["metrics"]["raw " + key] = {"value": value,
                                                          "unit": "s"}
    print("%-26s %-6s" % ("metric", "unit")
          + "".join("%18s" % name for name in results))
    for metric, m in next(iter(results.values()))["metrics"].items():
        print("%-26s %-6s" % (metric, m["unit"]) + "".join(
            "%18.6g" % r["metrics"][metric]["value"] for r in results.values()))
    print("%-26s %-6s" % ("checks_failed", "gates") + "".join(
        "%18s" % ("%d/%d" % (r["failed"], r["attempted"]))
        for r in results.values()))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
