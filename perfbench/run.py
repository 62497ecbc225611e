#!/usr/bin/env python3
"""Build and run the FIS-ONE serving benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_fleet --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The first form builds the repository's library and the benchmark driver
(CMake, Release) under the build directory ($CARGO_TARGET_DIR, else
.bench_build), runs one workload and prints its result as the last line of
stdout: one JSON object with "correct", "attempted", "failed" and
"metrics". With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer ones; the driver's output is
checked against that list (every name present, with its unit) before it is
printed. A build failure, a crash or a result that does not parse exits
non-zero without printing a result.

--smoke runs every workload briefly in both modes and checks that every
metric is printed with its unit and that the output JSON parses.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then build (a no-op when nothing changed)."""
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", out, "--target", "fisone_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "fisone_perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(binary, workload, seed, seconds, trace):
    """Run the driver; return its result line, parsed and checked."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", work]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: driver exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: driver printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{workload}: result keys {sorted(result)}")
    expected = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        raise RuntimeError(f"{workload}: metrics differ from BENCHMARK.json "
                           f"(missing {missing}, extra {extra}, wrong units {units})")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            raise RuntimeError(f"{workload}: metric {name} has no numeric value")
    return lines[-1], result


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for workload in workloads:
        for trace in (False, True):
            t0 = time.monotonic()
            _, r = run_once(binary, workload, 1, SMOKE_SECONDS, trace)
            log(f"smoke: {workload} trace={int(trace)}: {len(r['metrics'])} metrics, "
                f"correct={r['correct']}, attempted={r['attempted']}, failed={r['failed']} "
                f"({time.monotonic() - t0:.1f} s)")
    print("smoke: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        binary = build()
        if args.smoke:
            smoke(binary)
            return 0
        if not args.workload:
            ap.error("--workload is required")
        line, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
