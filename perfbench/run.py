#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload single_cold|fleet_open|threads_shared \\
        --seed N --seconds S --trace 0|1

The program is compiled from the checkout's sources into .bench_build (or
$CARGO_TARGET_DIR when set). The benchmark's arithmetic tests run first. The
last line of standard output is the JSON result; build output goes to
standard error. Besides the binary's own checks, this script fails the run
when a metric is missing from BENCHMARK.json or when a second run with the
same seed and the same sources gives a different virtual-time digest.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the sources the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, _, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            fail("build failed: " + " ".join(step))


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    build(build_dir)
    test = subprocess.run([os.path.join(build_dir, "perfbench_stats_test")],
                          stdout=sys.stderr, stderr=sys.stderr)
    if test.returncode:
        fail("the benchmark's arithmetic tests failed")

    digest = source_digest()
    traced = args.trace == "1"
    spans = os.path.join(build_dir,
                         "spans-%s-%d.json" % (args.workload, args.seed))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha(), "--source-digest", digest[:16]]
    if traced:
        cmd += ["--spans-out", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        sys.stdout.write(proc.stdout)
        fail("the benchmark binary exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    stamp = json.loads(lines[-2])["stamp"]

    problems = []
    expected = expected_metrics(traced)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append("metrics differ from BENCHMARK.json: %s"
                        % sorted(set(got.items()) ^ set(expected.items())))
    # Same sources and seed must give the same virtual-time results in every
    # process; remember each digest and compare later runs against it.
    memo_dir = os.path.join(build_dir, "digests")
    os.makedirs(memo_dir, exist_ok=True)
    memo = os.path.join(memo_dir, "%s-%s-%d-%s" % (
        digest[:16], args.workload, args.seed, args.trace))
    if os.path.exists(memo):
        with open(memo) as f:
            if f.read().strip() != stamp["virtual_digest"]:
                problems.append("virtual-time results differ from an earlier "
                                "run with the same seed")
    elif proc.returncode == 0:
        with open(memo, "w") as f:
            f.write(stamp["virtual_digest"] + "\n")

    for p in problems:
        print("perfbench: CHECK FAILED: " + p, file=sys.stderr)
    if problems:
        result["correct"] = False
        lines[-1] = json.dumps(result)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(1 if problems or proc.returncode else 0)


if __name__ == "__main__":
    main()
