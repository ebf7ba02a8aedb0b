#!/usr/bin/env python3
"""Compare two BENCH_sim.json, two BENCH_emu.json or two BENCH_sweep.json reports.

BENCH_sim.json (schema anor.bench_sim.v1): matches cases by (nodes,
duration_s, job_shape; a report without job_shape has only "wide"
cases), prints a side-by-side steps/sec table with the per-phase
profile deltas that moved most, and exits nonzero if any case's
steps_per_sec regressed by more than the threshold (default 10%), or if
any shared case's trace_hash changed: a speed comparison between runs
that computed different results means nothing, so the script names each
such case and fails.

BENCH_emu.json (schema anor.bench_emu.v1): the same steps/sec table and
regression threshold, cases matched by node count, and a failure naming
each shared case whose result_hash changed.

BENCH_sweep.json (schema anor.bench_sweep.v1): prints the cold pass's
wall time and the warm and cached speedups over it, baseline -> candidate,
and exits nonzero, naming the grid, when results_hash changed.  Its
speedups are gated by bench_sweep itself, so no threshold applies here.

Cases carry a "cache" provenance field ("hit" | "miss" | "off").  A cached
wall time measures a map lookup, not the simulator, so a case is only
compared when BOTH sides were actually computed ("miss"/"off"/absent);
any pair involving a "hit" is reported and skipped, never scored.

Reports from before the simulator stepped serially also carry cases run
on several step workers (step_workers > 1); those match nothing in a
newer report and print as "only in baseline; skipped".

    tools/compare_bench.py BASELINE.json CANDIDATE.json [--threshold 0.10]
"""

import argparse
import json
import sys


SIM_SCHEMA = "anor.bench_sim.v1"
EMU_SCHEMA = "anor.bench_emu.v1"
SWEEP_SCHEMA = "anor.bench_sweep.v1"


def case_key(case):
    return (case["nodes"], case["duration_s"], case.get("step_workers", 0),
            case.get("job_shape", "wide"))


def case_hash(case):
    """What the case computed: BENCH_sim's trace_hash, BENCH_emu's
    result_hash."""
    return case.get("trace_hash") or case.get("result_hash")


def was_computed(case):
    """True when the case's wall time timed an actual run (cache provenance
    "miss"/"off", or a pre-provenance report with no field at all)."""
    return case.get("cache", "off") in ("miss", "off")


def fmt_key(key):
    nodes, duration, workers, shape = key
    return (f"{nodes}n/{duration:g}s" + (f"/w{workers}" if workers > 1 else "")
            + ("/dense" if shape == "dense" else ""))


def load_report(path):
    with open(path) as f:
        report = json.load(f)
    if report.get("schema") not in (SIM_SCHEMA, EMU_SCHEMA, SWEEP_SCHEMA):
        sys.exit(f"{path}: unexpected schema {report.get('schema')!r}")
    return report


def compare_sweep(args, base, cand):
    """BENCH_sweep.json: the cold wall and the warm and cached speedups,
    and a failure when the grid's results changed."""
    print(f"baseline:  {args.baseline} (rev {base.get('git_revision')})")
    print(f"candidate: {args.candidate} (rev {cand.get('git_revision')})")
    base_cases = {c["name"]: c for c in base.get("cases", [])}
    cand_cases = {c["name"]: c for c in cand.get("cases", [])}
    cold_b = base_cases.get("cold_sequential", {}).get("wall_s")
    cold_c = cand_cases.get("cold_sequential", {}).get("wall_s")
    if cold_b is not None and cold_c is not None:
        print(f"{'cold wall_s':>24} {cold_b:>10.4f} -> {cold_c:>10.4f} "
              f"({cold_c / cold_b:.2f}x)")
    for label, field in (("warm speedup vs cold", "warm_speedup_vs_cold"),
                         ("cached speedup vs cold", "cached_speedup_vs_cold")):
        b, c = base.get(field), cand.get(field)
        if b is not None and c is not None:
            print(f"{label:>24} {b:>9.2f}x -> {c:>9.2f}x")
    grid = cand.get("grid") or base.get("grid") or cand.get("bench", "bench_sweep")
    cells = cand.get("grid_cells")
    bh, ch = base.get("results_hash"), cand.get("results_hash")
    if bh != ch:
        print(f"FAIL: grid {grid!r} ({cells} cells): results_hash changed {bh} -> {ch} "
              f"(sweep results differ, not just speed)")
        return 1
    print(f"OK: grid {grid!r} ({cells} cells): results_hash {ch} unchanged")
    return 0


def phase_deltas(base_case, cand_case):
    """Per-phase us_per_step deltas from the span-profiler summary,
    largest absolute change first."""
    base = base_case.get("profile", {})
    cand = cand_case.get("profile", {})
    deltas = []
    for phase in sorted(set(base) | set(cand)):
        b = base.get(phase, {}).get("us_per_step", 0.0)
        c = cand.get(phase, {}).get("us_per_step", 0.0)
        deltas.append((phase, b, c, c - b))
    deltas.sort(key=lambda d: abs(d[3]), reverse=True)
    return deltas


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max tolerated fractional steps/sec regression "
                             "(default 0.10)")
    parser.add_argument("--top-phases", type=int, default=3,
                        help="profile phases to show per regressed case")
    args = parser.parse_args()

    base_report = load_report(args.baseline)
    cand_report = load_report(args.candidate)
    if base_report["schema"] != cand_report["schema"]:
        sys.exit(f"schemas differ: {base_report['schema']!r} vs {cand_report['schema']!r}")
    if base_report["schema"] == SWEEP_SCHEMA:
        return compare_sweep(args, base_report, cand_report)
    base_cases = {case_key(c): c for c in base_report["cases"]}
    cand_cases = {case_key(c): c for c in cand_report["cases"]}

    print(f"baseline:  {args.baseline} (rev {base_report.get('git_revision')})")
    print(f"candidate: {args.candidate} (rev {cand_report.get('git_revision')})")

    shared = [k for k in base_cases if k in cand_cases]
    if not shared:
        sys.exit("no cases in common between the two reports")
    for key in set(base_cases) ^ set(cand_cases):
        side = "baseline" if key in base_cases else "candidate"
        print(f"note: case {fmt_key(key)} only in {side}; skipped")

    regressions = []
    header = f"{'case':>24} {'base steps/s':>14} {'cand steps/s':>14} {'delta':>8}"
    print(header)
    print("-" * len(header))
    for key in sorted(shared):
        base_case, cand_case = base_cases[key], cand_cases[key]
        if not (was_computed(base_case) and was_computed(cand_case)):
            # A cache hit's wall time measures the cache, not the code under
            # test: never score it against a computed number.
            print(f"{fmt_key(key):>24} {'cache: ' + base_case.get('cache', 'off'):>14} "
                  f"{'cache: ' + cand_case.get('cache', 'off'):>14} "
                  f"{'skipped':>8}")
            continue
        base_sps = base_case["steps_per_sec"]
        cand_sps = cand_case["steps_per_sec"]
        change = cand_sps / base_sps - 1.0
        flag = ""
        if change < -args.threshold:
            flag = "  REGRESSED"
            regressions.append(key)
        print(f"{fmt_key(key):>24} {base_sps:>14.1f} {cand_sps:>14.1f} "
              f"{change:>+7.1%}{flag}")

    for key in regressions:
        print(f"\n{fmt_key(key)}: largest per-phase us_per_step changes "
              f"(from the span profiler):")
        for phase, b, c, d in phase_deltas(base_cases[key], cand_cases[key])[:args.top_phases]:
            print(f"  {phase:<24} {b:>9.2f} -> {c:>9.2f} us/step ({d:+.2f})")

    hash_changes = []
    for key in sorted(shared):
        bh = case_hash(base_cases[key])
        ch = case_hash(cand_cases[key])
        if bh and ch and bh != ch:
            print(f"{fmt_key(key)}: result hash changed {bh} -> {ch} "
                  f"(simulation behavior differs, not just speed)")
            hash_changes.append(key)

    failed = bool(regressions) or bool(hash_changes)
    if regressions:
        print(f"\nFAIL: {len(regressions)} case(s) regressed more than "
              f"{args.threshold:.0%}")
    else:
        print(f"\nOK: no case regressed more than {args.threshold:.0%}")
    if hash_changes:
        print(f"FAIL: result hash changed in {len(hash_changes)} case(s): "
              + ", ".join(fmt_key(key) for key in hash_changes))

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
