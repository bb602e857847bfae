#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources, runs one
workload, and relays its output. The last line of stdout is the result
object {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload serve_sharded --seed 1 \
        --seconds 25 --trace 0

Build output goes to stderr; the build tree is .bench_build/perfbench at
the checkout root and traces go to .bench_build/traces.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group; kills the whole group on
    timeout and always waits for it to end."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the libhta sources (CMakeLists.txt, src/) are not in this checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        code, _ = run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if code != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run(["cmake", "--build", str(BUILD), "-j", jobs], BUILD_TIMEOUT_S)
    if code != 0:
        fail("build failed")
    return BUILD / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def validate(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the last line of output is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    names = expected_metrics(trace)
    if sorted(result["metrics"]) != sorted(names):
        missing = set(names) - set(result["metrics"])
        extra = set(result["metrics"]) - set(names)
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
             f"extra {sorted(extra)}")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number")
    if result["attempted"] < 1:
        fail("no operation was attempted")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    code, out = run(cmd, RUN_TIMEOUT_S, capture=True)
    if code != 0:
        fail(f"the benchmark binary exited with code {code}")
    lines = out.strip().splitlines()
    if not lines:
        fail("the benchmark binary printed nothing")
    validate(lines[-1], args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
