#!/usr/bin/env python3
"""Builds and runs the ASPECT pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload clp_xiami_sweep --seed 1 \
        --seconds 40 --trace 0

`--workload all` runs every workload of BENCHMARK.json in turn, each
printing its own report and JSON line, and exits with the first non-zero
exit code.

The first call configures and builds a Release copy of the library and
the benchmark binary from source into the build directory
($CARGO_TARGET_DIR, else .bench_build); later calls only rebuild what
changed. Build output goes to stderr. Every other argument is passed to
the binary, whose standard output (ending in one JSON line) is passed
through unchanged. The exit code is the binary's, or 1 if the build
fails, or 2 if the library sources are missing.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TARGET = "aspect_pipeline_bench"


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(os.cpu_count() or 1, 8))
    compile_cmd = ["cmake", "--build", build_dir, "--target", TARGET,
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, TARGET)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "aspect", "coordinator.h")):
        print("perfbench: library sources not found under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        i = args.index("--workload") + 1
        runs = [args[:i] + [name] + args[i + 1:] for name in names]
    code = 0
    for run_args in runs:
        sys.stdout.flush()
        # run() waits for the binary, and kills it if this script is
        # interrupted, so no process outlives the benchmark.
        rc = subprocess.run([binary, "--work-dir", work_dir] +
                            run_args).returncode
        code = code or rc
    return code

if __name__ == "__main__":
    sys.exit(main())
