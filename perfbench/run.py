#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cold_start --seed 1 --seconds 30 --trace 0

`--workload all` runs cold_start, steady_kernels and provisioning in turn.
The benchmark and the repository's src/ and apps/ libraries are compiled in a
Release build under .bench_build/ (build output goes to stderr). The
benchmark's last line on stdout is the JSON result; the lines before it,
prefixed with '#', give the provenance (build type, compiler, nproc, git
sha, seed, VM backend) and the detail behind each metric. With --trace 1
the spans are also written to .bench_build/traces/ as Chrome trace-event
JSON.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cold_start", "steady_kernels", "provisioning")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def positive_seconds(text):
    value = float(text)
    if not 0 < value <= 120:
        raise argparse.ArgumentTypeError("seconds must be in (0, 120]")
    return text


def build():
    """Configures (once) and builds the benchmark; returns on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                 BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    for attempt in range(2):
        # Keep the compiler's temporary files inside the checkout too.
        os.makedirs(os.environ["TMPDIR"], exist_ok=True)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("configuring the build failed")
        if subprocess.run(compile_, stdout=sys.stderr).returncode == 0:
            return
        # A cache left by another source tree or an interrupted build:
        # start once from scratch.
        if attempt == 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
    fail("building the benchmark failed")


def git_sha():
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if sha.returncode != 0 or not sha.stdout.strip():
            return "unknown"
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=positive_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    for needed in ("src/CMakeLists.txt", "apps/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("the repository sources are missing (%s); run from a full "
                 "checkout" % needed)
    if os.environ.get("ELIDE_SVM_BACKEND") is not None:
        fail("refusing to run with ELIDE_SVM_BACKEND set; it swaps the VM "
             "engine under every workload")
    os.environ["TMPDIR"] = os.path.join(BUILD_DIR, "tmp")

    build()
    sha = git_sha()
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        code = run(workload, args, sha)
        if code != 0:
            sys.exit(code)


def run(workload, args, sha):
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", args.seconds, "--trace", str(args.trace),
               "--git-sha", sha]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("the %s run exceeded %d s" % (workload, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
