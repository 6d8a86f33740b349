#!/usr/bin/env python3
"""Builds and runs the step-throughput benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload alexnet-q4-mpi8 --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The benchmark binary is built from source into .bench_build/ (CMake, the
repository's src/ libraries plus perfbench/*.cc) on first use; later runs
only re-check that build. Build output goes to stderr, so the last line of
stdout is always the benchmark's JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lpsgd_perfbench")
# A run measures for --seconds plus set-up; this bounds a wedged one.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree next to perfbench/; run from a repository checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = ["cmake", "--build", BUILD, "--target", "lpsgd_perfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_id():
    """The git commit when there is one, plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return "%s+src-%s" % (commit, digest.hexdigest()[:16])


def check_benchmark_names(output):
    """Self-test half kept here: the binary's emitted names and units must
    be exactly the ones BENCHMARK.json declares, in both modes."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    runs = [json.loads(line)["self_test_names"]
            for line in output.splitlines() if "self_test_names" in line]
    failures = 0
    for run in runs:
        ok = run["metrics"] == declared[run["trace"]]
        failures += not ok
        print("%s %s --trace %d: emitted names and units match BENCHMARK.json"
              % ("ok  " if ok else "FAIL", run["workload"], run["trace"]),
              file=sys.stderr)
    if len(runs) != 2 * len(bench["workloads"]):
        failures += 1
        print("FAIL self-test covered %d runs" % len(runs), file=sys.stderr)
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build()
    command = [BINARY, "--seed", str(args.seed), "--commit", source_id(),
               "--work_dir", os.path.join(BUILD, "work")]
    if args.self_test:
        command.append("--self_test")
    else:
        command += ["--workload", args.workload,
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            command += ["--trace_out", os.path.join(
                traces, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    if args.self_test:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        failures = check_benchmark_names(done.stdout)
        sys.exit(1 if done.returncode != 0 or failures else 0)
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
