#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds perfbench/serve_bench (and the library it links) from source in
Release mode, runs one workload, and prints the run's result object as
the last line of standard output.

From the repository root:

  python3 perfbench/run.py --workload ppr-uniform --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the serving state (WAL, snapshots) and the
span files of traced runs are written under the same directory.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# An untraced run is this many serve_bench processes, each setting up
# and serving for a share of the run. Throughput and peak memory shift
# from one deployment to the next; pooling rounds evens that out.
ROUNDS = 3


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def run_logged(cmd, log, timeout):
    """Runs a build step with its output in `log`; True on success."""
    try:
        subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                       timeout=timeout, check=True)
        return True
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"perfbench: build step failed: {err}", file=sys.stderr)
        return False


def build():
    """Configures (once) and builds serve_bench; returns its path or None."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        ok = True
        # A configure that failed leaves no Makefile, so it is retried.
        if not os.path.exists(os.path.join(bdir, "Makefile")):
            ok = run_logged(["cmake", "-S", "perfbench", "-B", bdir,
                             "-DCMAKE_BUILD_TYPE=Release"], log,
                            BUILD_TIMEOUT_S)
        ok = ok and run_logged(
            ["cmake", "--build", bdir, "--target", "serve_bench", "-j",
             str(os.cpu_count() or 1)], log, BUILD_TIMEOUT_S)
    if not ok:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        return None
    return os.path.join(bdir, "serve_bench")


def run_once(exe, workload, seed, seconds, trace, timeout, extra=()):
    """Runs serve_bench; returns (output lines, result dict or None)."""
    bdir = build_dir()
    cmd = [exe, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}",
           f"--state-dir={os.path.join(bdir, 'state')}",
           f"--trace-dir={os.path.join(bdir, 'traces')}", *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: serve_bench timed out", file=sys.stderr)
        return [], None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        print(f"perfbench: serve_bench exited {proc.returncode}",
              file=sys.stderr)
        return lines, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(out)
        return lines, None
    if set(result) != RESULT_KEYS:
        return lines, None
    return lines[:-1], result


def percentile(values, q):
    """Linear-interpolated percentile, as serve_bench computes it."""
    values = sorted(values)
    rank = q * (len(values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (rank - lo) * (values[hi] - values[lo])


def run_workload(exe, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (output lines, result dict or None).

    A traced run is one process. An untraced run pools ROUNDS processes
    of seconds / ROUNDS each: queries over batch time for qps, every
    batch for the latency percentiles, and the median round for set-up
    time and peak memory."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        return run_once(exe, workload, seed, seconds, 1, RUN_TIMEOUT_S, extra)
    lines, rounds, results = [], [], []
    for i in range(ROUNDS):
        out, result = run_once(exe, workload, seed, seconds / ROUNDS, 0,
                               max(1.0, deadline - time.monotonic()),
                               extra if i == 0 else ())
        raw = [json.loads(line)["round"] for line in out
               if line.startswith('{"round"')]
        if result is None or len(raw) != 1:
            return lines + out, None
        lines += [line for line in out if not line.startswith('{"round"')
                  and (i == 0 or not line.startswith('{"meta"'))]
        rounds.append(raw[0])
        results.append(result)
    batch_ms = [b for r in rounds for b in r["batch_ms"]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "qps": (sum(r["queries"] for r in rounds) /
                sum(r["serve_s"] for r in rounds)),
        "batch_p50_ms": percentile(batch_ms, 0.5),
        "batch_p95_ms": percentile(batch_ms, 0.95),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    units = results[0]["metrics"]
    lines.append(f"pooled {ROUNDS} rounds: {len(batch_ms)} batches, "
                 f"{len(batch_ms) - math.ceil(0.95 * len(batch_ms))} "
                 "beyond p95")
    return lines, {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": units[name]["unit"]}
                    for name, value in values.items()},
    }


def metric_problems(result, expected):
    """Names of `expected` metrics missing, unit-less or not finite."""
    problems = []
    for m in expected:
        got = result["metrics"].get(m["name"])
        if (got is None or got.get("unit") != m["unit"] or
                not isinstance(got.get("value"), (int, float)) or
                not math.isfinite(got["value"])):
            problems.append(m["name"])
    return problems


def self_test(exe):
    """Short runs of every workload: every named metric prints with its
    unit, HEAD answers correctly, and an injected wrong answer registers
    as a failure."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ok = True
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, result = run_workload(exe, workload["name"], 1, 1, trace)
            if result is None:
                print(f"FAIL {workload['name']} trace={trace}: no result")
                ok = False
                continue
            problems = metric_problems(result, spec[key])
            if problems or not result["correct"] or result["failed"]:
                print(f"FAIL {workload['name']} trace={trace}: "
                      f"missing {problems}, correct={result['correct']}, "
                      f"failed={result['failed']}")
                ok = False
            else:
                print(f"ok   {workload['name']} trace={trace}: "
                      f"{len(spec[key])} metrics")
    name = spec["workloads"][0]["name"]
    _, result = run_workload(exe, name, 1, 1, 0, ["--inject-wrong-answer"])
    if (result is None or result["correct"] or result["failed"] < 1):
        print(f"FAIL {name}: an injected wrong answer was not counted")
        ok = False
    else:
        print(f"ok   {name}: injected wrong answer counted "
              f"(failed={result['failed']} of {result['attempted']})")
    print("self-test:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    exe = build()
    if exe is None:
        return 1
    if args.self_test:
        return self_test(exe)
    if not args.workload:
        parser.error("--workload is required")
    lines, result = run_workload(exe, args.workload, args.seed, args.seconds,
                                 args.trace)
    if result is None:
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["attempted"] >= 1 else 1


if __name__ == "__main__":
    sys.exit(main())
