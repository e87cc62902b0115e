#!/usr/bin/env python3
"""Smoke test of the pipeline benchmark at tiny scale.

Run from the repository root:

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at --size-factor 0.25 for one
second, untraced and traced, and checks that each run is correct, that
its JSON line carries exactly the declared metrics with their declared
units, and that the human-readable report prints the metrics kept out of
the JSON line (failed_share, final_error, query_error) and, when traced,
the self-time check and the tracing overhead. Exits non-zero on the
first mismatch.
"""

import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def fail(msg):
    print("smoke test FAILED: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", trace, "--size-factor", "0.25"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            where = "%s --trace %s" % (workload, trace)
            if proc.returncode != 0:
                fail("%s exited %d:\n%s" % (where, proc.returncode,
                                            proc.stderr[-2000:]))
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail("%s: unexpected keys %s" % (where, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                fail("%s: incorrect run:\n%s" % (where, proc.stderr[-2000:]))
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in declared}
            if set(metrics) != set(want):
                fail("%s: metrics differ: missing %s, extra %s" % (
                    where, sorted(set(want) - set(metrics)),
                    sorted(set(metrics) - set(want))))
            for name, unit in want.items():
                value = metrics[name]["value"]
                if metrics[name]["unit"] != unit:
                    fail("%s: %s has unit %s, declared %s" % (
                        where, name, metrics[name]["unit"], unit))
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    fail("%s: %s is not a finite number" % (where, name))
            report = "\n".join(lines[:-1])
            expected = (["failed_share", "final_error", "query_error",
                         "machine: nproc="] if trace == "0" else
                        ["self-time check", "tracing overhead"])
            for text in expected:
                if text not in report:
                    fail("%s: report lacks '%s'" % (where, text))
            print("ok  %-22s --trace %s  %d metrics" % (workload, trace,
                                                         len(metrics)))
    print("smoke test passed")


if __name__ == "__main__":
    main()
