#!/usr/bin/env python3
"""End-to-end benchmark of the ANOR power-management stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --diff BEFORE.jsonl AFTER.jsonl

Run from the repository root.  The first call builds perfbench/bench.cpp
and the framework libraries (Release) into .bench_build/perfbench.

Workloads (closed batches: jobs arrive in virtual time, one process):

  tab-dense   Tabular backend, NAS-long mix at native job sizes, 75 %
              utilization, demand-response targets, serial stepping.  The
              running-job count grows with the cluster, so the per-job
              layers carry the wall: completions, scheduler, budget solve,
              cap write-back.
  tab-wide    Tabular backend, every job scaled to nodes/40 nodes (~700
              jobs per hour at any size), 2 step workers.  The per-node
              layers carry the wall (node update, refresh, progress sweep,
              ShardWorkers rendezvous); the only sharded workload.
  emu-fig9    Emulated backend, Fig. 9 shape: 95 % utilization, BT labelled
              IS under the feedback ("adjusted") policy.  The only workload
              on the job tier and the two-tier messaging; every step() is
              timed from outside.
  sweep-grid  anor.sweep.v1 grid, 4 policies x 3 node-variation levels on
              the tabular backend, 2 run workers.  Pass 1 computes and
              writes every cell to a fresh disk cache, pass 2 serves them
              from it.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones and
the profiler phase table.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}, with the metrics that
BENCHMARK.json names for the mode.  An operation is a job (a cell for the
sweep); a repetition whose output check fails counts all of its
operations as failed, and the command then exits 1.

--out FILE appends the full per-run document as one JSON line.  --diff
reads two such files (say, traced runs of the parent and of a change) and
prints, per workload, every phase's self time and share of run wall
before and after, sorted by absolute change.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "work"
WORKLOADS = ("tab-dense", "tab-wide", "emu-fig9", "sweep-grid")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build the benchmark; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no ANOR sources at {ROOT}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD_DIR.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail("build failed: " + " ".join(step))
    return BUILD_DIR / "perfbench"


def contract_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def show(detail):
    print(f"workload {detail['workload']}  seed {detail['seed']:g}  "
          f"{'traced' if detail['trace'] else 'untraced'}  "
          f"repetitions {detail['repetitions']}  jobs {detail['jobs']}")
    print(f"result_hash {detail['result_hash']}")
    for name, metric in detail["metrics"].items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    if detail["trace"]:
        print(f"phase table (median of traced repetitions; run wall "
              f"{detail['run_wall_ms']:.1f} ms)")
        print(f"  {'phase':32s} {'calls':>10s} {'self_ms':>12s} {'share':>8s}")
        for row in sorted(detail["phases"], key=lambda r: -r["self_ms"]):
            print(f"  {row['phase']:32s} {row['calls']:>10.0f} {row['self_ms']:>12.3f} "
                  f"{100 * row['share']:>7.2f}%")
    for problem in detail["problems"]:
        print(f"CHECK FAILED: {problem}")


def run(args):
    binary = build()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(WORK_DIR)]
    if args.toy:
        command.append("--toy")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    try:
        detail = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{args.workload} exited {done.returncode} without a result")

    metrics = {}
    for entry in contract_metrics(args.trace):
        have = detail["metrics"].get(entry["name"])
        if have is None or have["unit"] != entry["unit"]:
            fail(f"metric {entry['name']} [{entry['unit']}] missing from the output")
        metrics[entry["name"]] = have
    show(detail)
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps(detail) + "\n")
    print(json.dumps({"correct": detail["correct"], "attempted": int(detail["attempted"]),
                      "failed": int(detail["failed"]), "metrics": metrics}))
    return 0 if detail["correct"] and done.returncode == 0 else 1


def load_traced(path):
    """Last traced document per workload in a JSON-lines file."""
    docs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            doc = json.loads(line)
            if doc.get("trace"):
                docs[doc["workload"]] = doc
    return docs


def diff(before_path, after_path):
    before, after = load_traced(before_path), load_traced(after_path)
    common = [w for w in WORKLOADS if w in before and w in after]
    if not common:
        fail("the two files share no traced workload")
    for workload in common:
        b, a = before[workload], after[workload]
        print(f"{workload}: run wall {b['run_wall_ms']:.1f} ms -> {a['run_wall_ms']:.1f} ms"
              f"  (hash {b['result_hash']} -> {a['result_hash']})")
        rows_b = {r["phase"]: r for r in b["phases"]}
        rows_a = {r["phase"]: r for r in a["phases"]}
        empty = {"self_ms": 0.0, "share": 0.0}
        rows = []
        for phase in set(rows_b) | set(rows_a):
            rb, ra = rows_b.get(phase, empty), rows_a.get(phase, empty)
            rows.append((phase, rb, ra, ra["self_ms"] - rb["self_ms"]))
        rows.sort(key=lambda r: -abs(r[3]))
        print(f"  {'phase':32s} {'self_ms before':>14s} {'after':>12s} {'change':>12s}"
              f" {'share before':>12s} {'after':>8s}")
        for phase, rb, ra, change in rows:
            print(f"  {phase:32s} {rb['self_ms']:>14.3f} {ra['self_ms']:>12.3f} {change:>+12.3f}"
                  f" {100 * rb['share']:>11.2f}% {100 * ra['share']:>7.2f}%")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full run document to this file")
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.diff:
        return diff(*args.diff)
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
