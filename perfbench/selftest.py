#!/usr/bin/env python3
"""Self-tests of the benchmark harness, on tiny windows.

    python3 perfbench/selftest.py

Every workload must pass all of its answer gates at the tiny size, and a
deliberately corrupted answer must fail at least one of them.
"""

import copy
import json
from pathlib import Path
import shutil
import subprocess
import sys
import tempfile
import time
import types
import unittest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracing import NullTracer, Tracer, self_times, span_table  # noqa: E402
import workloads  # noqa: E402
from tilesim.graphs import CapacityError  # noqa: E402
from tilesim.simulation import rename_vertices  # noqa: E402

SEED = 7


def tiny(name):
    wl = workloads.WORKLOADS[name]
    state = wl.setup(SEED, "tiny")
    tracer = Tracer()
    with tracer.iteration(0):
        out = wl.run(state, tracer)
    return wl, state, out, tracer


def failed(wl, state, out):
    return [g for g, ok in wl.check(state, out) if not ok]


class TinyWorkloads(unittest.TestCase):
    def test_every_gate_passes_at_seed_code(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name):
                wl, state, out, _ = tiny(name)
                gates = wl.check(state, out)
                self.assertGreaterEqual(len(gates), 3)
                self.assertEqual(failed(wl, state, out), [])

    def test_counts_repeat_exactly(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name):
                first = tiny(name)[3].counts[0]
                self.assertEqual(first, tiny(name)[3].counts[0])

    def test_seed_changes_the_input_not_the_answer(self):
        wl = workloads.WORKLOADS["comb_homs"]
        a, b = wl.setup(1, "tiny"), wl.setup(2, "tiny")
        self.assertNotEqual(a["comb"].tiles, b["comb"].tiles)
        self.assertEqual(wl.setup(1, "tiny")["comb"], a["comb"])
        outs = [wl.run(s, NullTracer()) for s in (a, b)]
        self.assertEqual(outs[0]["count"], outs[1]["count"])


class CorruptedAnswers(unittest.TestCase):
    def test_sea_flipped_tile(self):
        wl, state, out, _ = tiny("sea_pipeline")
        bad = dict(out, tiles=dict(out["tiles"]))
        pt = next(iter(out["forced"]))
        bad["tiles"][pt] = (bad["tiles"][pt] + 1) % len(state["ts"].alphabet)
        self.assertIn("omega_on_deep_interior", failed(wl, state, bad))

    def test_sea_missing_forced_point(self):
        wl, state, out, _ = tiny("sea_pipeline")
        forced = dict(out["forced"])
        forced.pop(next(iter(forced)))
        bad = dict(out, forced=forced)
        self.assertEqual(failed(wl, state, bad), ["forced_is_omega"])

    def test_sea_misplaced_trusted_vertex(self):
        wl, state, out, _ = tiny("sea_pipeline")
        g, inc = out["graph"], out["incomplete"]
        v0 = next(v for v in g.vlabel if v not in inc)
        v1 = next(v for v in inc if g.vlabel[v] != g.vlabel[v0])
        swap = {v0: v1, v1: v0}
        bad = dict(out, graph=rename_vertices(g, lambda v: swap.get(v, v)))
        self.assertEqual(failed(wl, state, bad), ["trusted_quadrant_patch"])

    def test_sea_unsolved(self):
        wl, state, out, _ = tiny("sea_pipeline")
        self.assertEqual(failed(wl, state, dict(out, tiles=None)), ["solved"])

    def test_halfplane_flipped_grid_tile(self):
        wl, state, out, _ = tiny("halfplane_search")
        bad = copy.deepcopy(out)
        res = next(r for r in bad["results"] if r["sat"])
        res["grid"][(1, 0)] = 1 - res["grid"][(1, 0)]
        self.assertEqual(failed(wl, state, bad),
                         [res["name"] + ".grid_matches_wang_colours"])

    def test_halfplane_star_violation(self):
        wl, state, out, _ = tiny("halfplane_search")
        bad = copy.deepcopy(out)
        res = next(r for r in bad["results"] if r["sat"])
        res["star"] = [((1, 0), "S", "c", ("d",))]
        self.assertEqual(failed(wl, state, bad),
                         [res["name"] + ".no_star_violations"])

    def test_halfplane_wrong_verdict(self):
        wl, state, out, _ = tiny("halfplane_search")
        bad = copy.deepcopy(out)
        res = next(r for r in bad["results"] if not r["sat"])
        res["sat"] = True
        res.update(tiling_ok=True, star=[], grid={})
        self.assertIn(res["name"] + ".sat_agrees_with_brute_force",
                      failed(wl, state, bad))

    def test_comb_dropped_hom(self):
        wl, state, out, _ = tiny("comb_homs")
        bad = dict(out, homs=out["homs"][1:])
        self.assertIn("homs_equal_exact_count", failed(wl, state, bad))

    def test_comb_repeated_hom(self):
        wl, state, out, _ = tiny("comb_homs")
        bad = dict(out, homs=[out["homs"][0]] + out["homs"][1:-1]
                   + [out["homs"][0]])
        self.assertEqual(failed(wl, state, bad), ["homs_are_distinct_tilings"])

    def test_comb_mismatched_tiles(self):
        wl, state, out, _ = tiny("comb_homs")
        vmap = dict(out["homs"][0].vmap)
        a, b = list(vmap)[:2]
        vmap[a], vmap[b] = vmap[b], vmap[a]
        if vmap == out["homs"][0].vmap:
            self.skipTest("swapped points carry the same tile")
        homs = [types.SimpleNamespace(vmap=vmap)] + out["homs"][1:]
        self.assertIn("homs_are_distinct_tilings",
                      failed(wl, state, dict(out, homs=homs)))


class Harness(unittest.TestCase):
    def test_program_failure_is_a_failed_gate(self):
        def boom(state, tr):
            raise CapacityError("window exceeds 1 vertices")
        wl = workloads.Workload(None, boom, None)
        passes = run.measure(wl, {}, 0.0, lambda i: NullTracer())
        self.assertEqual(len(passes), 1)
        self.assertEqual(passes[0]["failed_gates"],
                         ["raised CapacityError: window exceeds 1 vertices"])

    def test_self_time_subtracts_children(self):
        tr = Tracer()
        with tr.iteration(0):
            with tr.span("a.outer"):
                with tr.span("a.inner"):
                    time.sleep(0.01)
        own = self_times(tr.spans)
        root, outer, inner = tr.spans
        self.assertEqual(outer["parent"], root["id"])
        self.assertEqual(inner["parent"], outer["id"])
        self.assertAlmostEqual(
            own[outer["id"]],
            (outer["end"] - outer["start"]) - (inner["end"] - inner["start"]))
        self.assertGreaterEqual(own[inner["id"]], 0.01)
        self.assertEqual(span_table(tr.spans)["a.inner"]["count"], 1)

    def test_reference_speed_scales_each_sample(self):
        ref = run.REF_CALIBRATION_S
        # a pass twice as long on a machine twice as slow reads the same
        self.assertAlmostEqual(run.at_reference([1.0, 2.0, 3.0],
                                                [ref, 2 * ref, ref]), 1.0)
        self.assertEqual(run.around([1.0, 3.0, 5.0]), [2.0, 4.0])
        self.assertGreater(run.calibrate(), 0)

    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOAD_NAMES))
        self.assertEqual(set(run.WORKLOAD_NAMES), set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)


def cli(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


class CommandLine(unittest.TestCase):
    def run_tiny(self, workload, trace):
        done = cli("--workload", workload, "--seed", str(SEED),
                   "--seconds", "0.1", "--trace", str(trace), "--size", "tiny")
        self.assertEqual(done.returncode, 0, done.stderr)
        return json.loads(done.stdout.splitlines()[-1])

    def test_untraced_output(self):
        res = self.run_tiny("halfplane_search", 0)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(
            {k: v["unit"] for k, v in res["metrics"].items()}, run.END_TO_END)
        self.assertTrue(all(v["value"] > 0 for v in res["metrics"].values()))
        record = json.loads((run.RESULTS / (
            "halfplane_search-seed%d-trace0.json" % SEED)).read_text())
        prov = record["provenance"]
        self.assertEqual(prov["recursion_limit"], sys.getrecursionlimit())
        self.assertEqual(prov["seed"], SEED)
        self.assertEqual(len(record["setup_s"]), run.SETUP_SAMPLES)

    def test_traced_output(self):
        res = self.run_tiny("sea_pipeline", 1)
        self.assertTrue(res["correct"])
        self.assertEqual(
            {k: v["unit"] for k, v in res["metrics"].items()}, run.PER_LAYER)
        self.assertGreater(res["metrics"]["sat.peak_mb"]["value"], 0)
        self.assertEqual(res["metrics"]["graphs.homs"]["value"], 0)

    def test_fails_without_the_sources(self):
        run.RESULTS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("results",
                                                          "__pycache__"))
            done = cli("--workload", "comb_homs", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
