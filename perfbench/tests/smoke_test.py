#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny sizes, untraced and traced.

    python3 perfbench/tests/smoke_test.py

For each run it checks that the benchmark exits 0 and reports correct, that
the last stdout line is the result object, that every metric BENCHMARK.json
declares for that mode is printed with its declared unit (and no other),
and that every output check ran and passed. It also checks that the
benchmark refuses to run, without a result, in a directory holding only
BENCHMARK.json and the benchmark's own files.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")

CHECKS = {
    0: {"setup_ok", "attempted_ge_requested", "digest_repeatable",
        "digest_seed_sensitive", "units_repeatable", "reference_repeatable"},
    1: {"setup_ok", "attempted_ge_requested", "traced_digest_matches",
        "digest_seed_sensitive", "layer_replays"},
}


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_run(spec, workload, trace):
    errors = []
    p = run_bench(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if p.returncode != 0:
        return [f"{where}: exit {p.returncode}\n{p.stdout}{p.stderr[-2000:]}"]
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: not correct: {lines[-1]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted {result.get('attempted')}")

    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    printed = result.get("metrics", {})
    for name, unit in declared.items():
        if name not in printed:
            errors.append(f"{where}: metric {name} not printed")
        elif printed[name].get("unit") != unit:
            errors.append(f"{where}: {name} unit {printed[name].get('unit')} != {unit}")
    for name in set(printed) - set(declared):
        errors.append(f"{where}: metric {name} not declared in BENCHMARK.json")

    ran = {line.split()[1].rstrip(":"): line.split()[2]
           for line in lines if line.startswith("check ")}
    for name in CHECKS[trace]:
        if ran.get(name) != "ok":
            errors.append(f"{where}: check {name} is {ran.get(name, 'missing')}")
    if not any(line.startswith(f"digest {workload} ") for line in lines):
        errors.append(f"{where}: no digest line")
    return errors


def check_refuses_without_sources(build_root):
    bare = os.path.join(build_root, "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run_bench(bare, "fig5_campaign", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip().startswith("{"):
        return [f"bare directory: exit {p.returncode}, stdout {p.stdout!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_run(spec, workload, trace)
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    errors += check_refuses_without_sources(build_root)
    for e in errors:
        print("FAIL", e)
    print("smoke:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
