#!/usr/bin/env python3
"""Compare fresh bench JSON-lines against committed BENCH_*.json baselines.

Usage:
    tools/bench_diff.py --fresh bench-smoke.json [--threshold 3.5]
                        BENCH_ENGINE.json BENCH_KERNELS.json
                        BENCH_LOCAL_SEARCH.json BENCH_LSAP.json
                        BENCH_MATCHING.json BENCH_SERVICE.json

Every record is a JSON-lines row written by bench::AppendBenchJson:

    {"bench": ..., "scale": ..., "threads": ..., "params": {...},
     "seconds": ...}

Records are matched between the fresh file and the baselines on
(bench, scale) plus every non-timing entry of "params"; the comparison
then takes the fresh/baseline ratio of each timing field ("seconds" and
any param ending in "_seconds"). The machine running CI is not the
machine that recorded the baseline, so raw ratios are uniformly shifted
by the hardware-speed difference: all ratios are normalized by their
global median before thresholding, which cancels the machine factor and
leaves only per-bench anomalies. A normalized ratio above --threshold
fails the run (exit 1) and names the offending record, so a perf
regression in one code path cannot hide behind an otherwise-green suite.

Fresh records with no baseline counterpart are reported and skipped,
not failed — committing a baseline row is how a bench opts into
regression tracking. A bench name absent from every baseline file is
summarized as one "new bench (no baseline yet)" notice rather than one
skip line per record, and a baseline file that does not exist yet is
tolerated with a notice (both happen on the PR that introduces a
bench). Timings at or below --min-seconds (default 1 ms) are skipped
as pure noise.
"""

import argparse
import json
import statistics
import sys


def load_records(path, missing_ok=False):
    records = []
    try:
        f = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        if missing_ok:
            print(f"bench_diff: baseline file {path} not found — treating "
                  f"its benches as new (no baseline yet)")
            return records
        sys.exit(f"{path}: not found")
    with f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{line_no}: bad JSON line: {e}")
    return records


def is_timing_param(key):
    return key.endswith("_seconds")


def match_key(record):
    """Identity of a record: bench, scale, and every stable param.

    Stable means everything except wall-clock measurements: "_seconds"
    params and timing-derived "speedup" ratios vary run to run, while
    config values (mode, churn, catalog, sample_cap) and deterministic
    outputs (solver_iterations, objective sums — bit-identical for a
    fixed seed on every machine) identify the record. Top-level
    "threads"/"hardware_concurrency" are machine properties and stay
    out.
    """
    parts = [("bench", record.get("bench")), ("scale", record.get("scale"))]
    for key in sorted(record.get("params", {})):
        if is_timing_param(key) or "speedup" in key:
            continue
        parts.append((key, record["params"][key]))
    return tuple(parts)


def timing_fields(record):
    fields = {}
    seconds = record.get("seconds")
    if isinstance(seconds, (int, float)):
        fields["seconds"] = float(seconds)
    for key, value in record.get("params", {}).items():
        if is_timing_param(key) and isinstance(value, (int, float)):
            fields[key] = float(value)
    return fields


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True,
                        help="JSON-lines file from the run under test "
                             "(HTA_BENCH_JSON output)")
    parser.add_argument("--threshold", type=float, default=3.5,
                        help="max allowed normalized slowdown ratio "
                             "(default %(default)s)")
    parser.add_argument("--min-seconds", type=float, default=1e-3,
                        help="ignore timings at or below this many seconds "
                             "(default %(default)s)")
    parser.add_argument("baselines", nargs="+",
                        help="committed BENCH_*.json files")
    args = parser.parse_args()

    baseline = {}
    baseline_benches = set()
    for path in args.baselines:
        for record in load_records(path, missing_ok=True):
            baseline[match_key(record)] = (path, record)
            baseline_benches.add(record.get("bench"))

    fresh = load_records(args.fresh)
    if not fresh:
        sys.exit(f"{args.fresh}: no records")

    ratios = []  # (ratio, description)
    unmatched = []
    new_benches = {}  # bench name -> record count
    for record in fresh:
        key = match_key(record)
        if key not in baseline:
            bench = record.get("bench")
            if bench not in baseline_benches:
                # The whole bench is absent from every baseline file:
                # it is new, not a stale config — pass with one notice
                # per bench instead of one skip line per record.
                new_benches[bench] = new_benches.get(bench, 0) + 1
            else:
                unmatched.append(key)
            continue
        base_path, base = baseline[key]
        base_fields = timing_fields(base)
        name = " ".join(f"{k}={v}" for k, v in key)
        for field, fresh_value in timing_fields(record).items():
            base_value = base_fields.get(field)
            if base_value is None:
                continue
            if (fresh_value <= args.min_seconds
                    or base_value <= args.min_seconds):
                continue
            ratios.append((fresh_value / base_value,
                           f"{name} [{field}] {fresh_value:.6f}s vs "
                           f"{base_value:.6f}s ({base_path})"))

    for bench, count in sorted(new_benches.items()):
        print(f"new bench (no baseline yet, pass with notice): {bench} "
              f"[{count} record(s)] — commit a BENCH_*.json row to opt "
              f"into regression tracking")
    for key in unmatched:
        print("no baseline (skipped):", " ".join(f"{k}={v}" for k, v in key))
    if not ratios:
        print("bench_diff: no comparable timings — nothing to check")
        return

    median = statistics.median(r for r, _ in ratios)
    print(f"bench_diff: {len(ratios)} timings compared, "
          f"median fresh/baseline ratio {median:.3f} "
          f"(machine-speed factor, divided out)")

    failures = []
    for ratio, description in sorted(ratios, reverse=True):
        normalized = ratio / median
        marker = " <-- REGRESSION" if normalized > args.threshold else ""
        print(f"  x{normalized:6.2f} (raw x{ratio:6.2f})  "
              f"{description}{marker}")
        if normalized > args.threshold:
            failures.append(description)

    if failures:
        print(f"\nbench_diff: {len(failures)} timing(s) regressed beyond "
              f"x{args.threshold} after machine normalization", file=sys.stderr)
        sys.exit(1)
    print(f"\nbench_diff: OK — no normalized slowdown beyond "
          f"x{args.threshold}")


if __name__ == "__main__":
    main()
