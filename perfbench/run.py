#!/usr/bin/env python3
"""Builds perfbench from the repository sources and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet-wearout --seed 3 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; the first run configures and compiles, later runs only
check that the build is current. The last line of stdout is the JSON result
the benchmark prints; it is checked against BENCHMARK.json before it is
passed on, and nothing is printed when building or running fails.

--size tiny runs the reduced workloads the self-tests use. --selftest builds
and runs those tests (every workload, two seeds, traced and untraced).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fleet-wearout", "replicated-traffic", "ec-faults"]


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path, "perfbench")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: '%s' failed\n" % " ".join(cmd))
        sys.exit(1)


def build():
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured from another checkout cannot be reused.
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) not in f.read():
                shutil.rmtree(out)
    if not os.path.exists(cache):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "-j", jobs], timeout=840)
    return out


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        out = build()
        proc = subprocess.run(["ctest", "--test-dir", out,
                               "--output-on-failure", "-j", "2"],
                              timeout=900)
        sys.exit(proc.returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out = build()
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size,
           "--golden", os.path.join(HERE, "golden_digests.txt")]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(out, "trace-%s.csv" % args.workload)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=175)
    if proc.returncode != 0:
        sys.stderr.write("perfbench exited with %d\n" % proc.returncode)
        sys.exit(1)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    expected = declared_metrics(args.trace == 1)
    if sorted(result["metrics"]) != sorted(expected):
        sys.stderr.write("perfbench: metrics %s differ from BENCHMARK.json %s\n"
                         % (sorted(result["metrics"]), sorted(expected)))
        sys.exit(1)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
