#!/usr/bin/env python3
"""Self-test of hostbench at a tiny size.

    python3 hostbench/self_test.py

Builds the benchmark as run.py does, then runs every workload at
--size tiny, untraced and traced, and checks that:
  * each run exits 0 and ends with the JSON result line, with
    correct == true and failed == 0 (which includes the traced mirror
    reproducing the untraced report bytes / pair outcomes, and the layer
    spans covering the traced pass);
  * the metrics are exactly BENCHMARK.json's end_to_end (untraced) or
    per_layer (traced) names, each with its declared unit and a finite
    number, and the readable table states fail_ratio and the tail
    percentile;
  * the deterministic counts of a traced run repeat exactly in a second
    traced run;
  * bad arguments exit 2 without a result line.
Exits 0 when every check passes, 1 otherwise.
"""
import json
import math
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build step and paths)

# Counts that must repeat exactly (simulated state, not host time).
DETERMINISTIC_UNITS = {"count", "cycles", "KB"}


def bench_run(workload, trace):
    cmd = [run.BINARY, "--workload", workload, "--seed", "7", "--seconds",
           "0.2", "--trace", str(trace), "--size", "tiny"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    return res.returncode, res.stdout


def check_result(workload, trace, spec, problems):
    rc, out = bench_run(workload, trace)
    where = f"{workload} --trace {trace}"
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        problems.append(f"{where}: exit {rc}")
        return {}
    try:
        result = json.loads(lines[-1])
    except ValueError:
        problems.append(f"{where}: last line is not JSON")
        return {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
        return {}
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']}")
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if list(got) != [m["name"] for m in want]:
        missing = {m["name"] for m in want} ^ set(got)
        problems.append(f"{where}: metric names differ: {sorted(missing)}")
    for m in want:
        v = got.get(m["name"])
        if v is None:
            continue
        if v.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {v.get('unit')} "
                            f"!= {m['unit']}")
        if not isinstance(v.get("value"), (int, float)) or \
                not math.isfinite(v["value"]):
            problems.append(f"{where}: {m['name']} value {v.get('value')}")
    if "fail_ratio" not in out:
        problems.append(f"{where}: no fail_ratio line")
    if not trace and " of n=" not in out:
        problems.append(f"{where}: tail percentile not stated")
    return got


def main():
    run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in run.WORKLOADS:
        check_result(workload, 0, spec, problems)
        first = check_result(workload, 1, spec, problems)
        second = check_result(workload, 1, spec, problems)
        for name, v in first.items():
            if v["unit"] in DETERMINISTIC_UNITS and \
                    second.get(name, {}).get("value") != v["value"]:
                problems.append(f"{workload}: count {name} did not repeat")
        print(f"{workload}: checked", flush=True)
    rc = subprocess.run([run.BINARY, "--workload", "nope"],
                        capture_output=True, text=True).returncode
    if rc != 2:
        problems.append(f"unknown workload exited {rc}, want 2")
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
