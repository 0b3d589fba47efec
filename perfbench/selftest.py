#!/usr/bin/env python3
"""Self-test of the benchmark: runs each workload briefly and checks it.

Run from the repository root (builds the benchmark first if needed):

    python3 perfbench/selftest.py

For every workload it checks that
  * an untraced and two traced runs with one seed verify every op
    (correct, no failed op, no canary mismatch);
  * the untraced run reports exactly the end_to_end metrics of
    BENCHMARK.json, and the traced runs exactly the per_layer metrics,
    each with the unit BENCHMARK.json gives and a finite value; every
    end-to-end value is above zero;
  * the exact counts (restore and suite instruction counts, frames per
    op) repeat exactly between the two traced runs;
  * the layers the workload is meant to exercise report a nonzero value.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
# Long enough that every app runs in the traced phases of each round.
SECONDS = "3"

# Layers each workload must exercise (a zero here means a span went
# missing, not that the layer got fast).
EXERCISED = {
    "cold_start": ["sgx.load_ms", "elide.restore_ms", "elide.restore_self_ms",
                   "app.first_ecall_ms", "server.handle_hello_ms",
                   "vm.restore_instructions", "elide.restored_bytes",
                   "server.frames_per_op", "elide.build_ms"],
    "steady_kernels": ["app.suite_ms.DES", "vm.suite_instructions.DES",
                       "vm.minstr_per_s", "elide.build_ms"],
    "provisioning": ["server.handle_hello_ms", "server.handle_record_ms",
                     "server.roundtrip_ms", "crypto.quote_ms",
                     "crypto.kex_ms", "crypto.record_ms",
                     "server.frames_per_op", "server.connections_per_op"],
}


def is_canary(name):
    return (name == "vm.restore_instructions" or name == "server.frames_per_op"
            or name.startswith("vm.suite_instructions."))


def run(workload, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds",
               SECONDS, "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" % (
            workload, trace, out.returncode, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    if "# canary mismatches: 0" not in lines:
        raise AssertionError("%s trace=%d: canary counts varied between ops"
                             % (workload, trace))
    return json.loads(lines[-1])


def check_result(result, spec, where):
    errors = []
    if not result["correct"] or result["failed"] != 0:
        errors.append("%s: %d of %d ops failed" % (
            where, result["failed"], result["attempted"]))
    if result["attempted"] < 1:
        errors.append("%s: no op attempted" % where)
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(expected):
        errors.append("%s: metrics differ from BENCHMARK.json: missing %s, "
                      "extra %s" % (where, sorted(set(expected) - set(metrics)),
                                    sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        if name not in metrics:
            continue
        if metrics[name]["unit"] != unit:
            errors.append("%s: %s has unit %s, BENCHMARK.json says %s" % (
                where, name, metrics[name]["unit"], unit))
        if not math.isfinite(metrics[name]["value"]):
            errors.append("%s: %s is not finite" % (where, name))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for workload in [w["name"] for w in bench["workloads"]]:
        errors_before = len(errors)
        untraced = run(workload, 0)
        errors += check_result(untraced, bench["end_to_end"],
                               workload + " trace=0")
        for name, metric in untraced["metrics"].items():
            if not metric["value"] > 0:
                errors.append("%s: end-to-end %s is not above zero" % (
                    workload, name))

        first, second = run(workload, 1), run(workload, 1)
        for i, traced in enumerate((first, second)):
            errors += check_result(traced, bench["per_layer"],
                                   "%s trace=1 run %d" % (workload, i + 1))
        for name in first["metrics"]:
            if is_canary(name) and (first["metrics"][name]["value"] !=
                                    second["metrics"][name]["value"]):
                errors.append("%s: canary %s differs between runs of seed %d:"
                              " %r vs %r" % (
                                  workload, name, SEED,
                                  first["metrics"][name]["value"],
                                  second["metrics"][name]["value"]))
        for name in EXERCISED[workload]:
            if not first["metrics"].get(name, {}).get("value", 0) > 0:
                errors.append("%s: per-layer %s is zero" % (workload, name))
        print("%s: %s" % (workload, "ok" if len(errors) == errors_before
                                    else "FAILED"))

    for e in errors:
        print("FAIL " + e)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
