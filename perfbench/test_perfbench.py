#!/usr/bin/env python3
"""Reduced-scale self-test of the benchmark: every workload at toy size.

    python3 perfbench/test_perfbench.py

Builds the benchmark if needed (see run.py), then runs each workload
untraced and traced on one seed and untraced on a second seed.  It checks
that every end-to-end metric BENCHMARK.json names is printed with its unit
and is nonzero, that the traced run gives every per-layer metric, that
tracing leaves the result hash unchanged, that another seed changes it,
and that the phase-table diff reads the traced outputs.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# End-to-end metrics of one workload's mechanism, printed beside the
# contract's metrics.
WORKLOAD_ONLY = {
    "emu-fig9": [("control_step_p50_us", "us"), ("control_step_p99_us", "us")],
    "sweep-grid": [("cells_per_s", "cells/s"), ("hit_cells_per_s", "cells/s")],
}
OUT_DIR = ROOT / ".bench_build" / "selftest"


def invoke(workload, seed, trace, out):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--trace", str(trace), "--toy", "--out", str(out)]
    return subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)


def last_document(path):
    return json.loads(Path(path).read_text().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build()
        shutil.rmtree(OUT_DIR, ignore_errors=True)
        OUT_DIR.mkdir(parents=True)
        cls.runs = {}
        for workload in bench.WORKLOADS:
            for seed, trace in ((1, 0), (1, 1), (2, 0)):
                out = OUT_DIR / f"{workload}-{seed}-{trace}.jsonl"
                cls.runs[workload, seed, trace] = (invoke(workload, seed, trace, out), out)

    def result_line(self, done):
        self.assertEqual(done.returncode, 0, done.stdout[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        return result

    def test_end_to_end_metrics_are_printed_with_units(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                done, _ = self.runs[workload, 1, 0]
                metrics = self.result_line(done)["metrics"]
                self.assertEqual(list(metrics), [m["name"] for m in SPEC["end_to_end"]])
                for entry in SPEC["end_to_end"]:
                    value = metrics[entry["name"]]
                    self.assertEqual(value["unit"], entry["unit"])
                    self.assertTrue(math.isfinite(value["value"]) and value["value"] > 0,
                                    entry["name"])
                for name, unit in WORKLOAD_ONLY.get(workload, []):
                    self.assertRegex(done.stdout, rf"\n  {name} +[0-9.e+-]+ {unit}\n")

    def test_traced_run_gives_per_layer_metrics(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                done, out = self.runs[workload, 1, 1]
                metrics = self.result_line(done)["metrics"]
                self.assertEqual(list(metrics), [m["name"] for m in SPEC["per_layer"]])
                for entry in SPEC["per_layer"]:
                    self.assertEqual(metrics[entry["name"]]["unit"], entry["unit"])
                self.assertGreater(metrics["engine.coverage"]["value"], 0)
                self.assertIn("trace.overhead", metrics)
                self.assertEqual(metrics["prof.dropped_spans"]["value"], 0)
                self.assertTrue(last_document(out)["phases"])

    def test_tracing_leaves_the_result_hash_unchanged(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                untraced = last_document(self.runs[workload, 1, 0][1])
                traced = last_document(self.runs[workload, 1, 1][1])
                self.assertRegex(untraced["result_hash"], "^[0-9a-f]{16}$")
                self.assertEqual(untraced["result_hash"], traced["result_hash"])

    def test_another_seed_changes_the_result_hash(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(last_document(self.runs[workload, 1, 0][1])["result_hash"],
                                    last_document(self.runs[workload, 2, 0][1])["result_hash"])

    def test_phase_table_diff_reads_traced_outputs(self):
        traced = OUT_DIR / "traced.jsonl"
        traced.write_text("".join(self.runs[w, 1, 1][1].read_text() for w in bench.WORKLOADS))
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--diff", str(traced),
                               str(traced)], cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=60)
        self.assertEqual(done.returncode, 0)
        for workload in bench.WORKLOADS:
            self.assertIn(f"{workload}: run wall", done.stdout)
        self.assertIn("engine.tick", done.stdout)


if __name__ == "__main__":
    unittest.main()
