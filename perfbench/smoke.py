#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at the smallest size (--seconds 1), untraced and traced,
through run.py, and checks that
  * each run exits 0 with a correct result and no failed operation;
  * the result line holds exactly BENCHMARK.json's metrics with their units;
  * the table names every end-to-end metric contract.json lists for the
    workload, each with a unit and a sample count;
  * the traced run prints the self-time table and its span dump exists;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero without printing a result.
Exit status 0 when every check passes.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def load(path):
    with open(path) as f:
        return json.load(f)


def run(workload, trace, failures):
    args = RUN + ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        failures.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        failures.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    have = {name: m["unit"] for name, m in result["metrics"].items()}
    if have != want:
        failures.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(have) ^ set(want))}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            failures.append(f"{label}: {name} is not a number")
        elif not trace and metric["value"] <= 0:
            failures.append(f"{label}: gated metric {name} is {metric['value']}")
    return lines


def check_table(workload, lines, failures):
    contract = load(os.path.join(HERE, "contract.json"))
    for name, workloads in contract["printed_end_to_end"].items():
        if workload not in workloads:
            continue
        pattern = re.compile(r"^\s+" + re.escape(name) + r"( \(.*\))?\s+\S+ (\S+)\s+n=\d+$")
        if not any(pattern.match(line) for line in lines):
            failures.append(f"{workload}: table lacks {name} with unit and sample count")


def check_bare_directory(failures):
    """run.py must refuse, without a result, when the sources are absent."""
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(ROOT, build)
    bare = os.path.join(build, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        failures.append("bare directory: run.py did not refuse")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    failures = []
    for workload in [w["name"] for w in load(os.path.join(ROOT, "BENCHMARK.json"))["workloads"]]:
        lines = run(workload, 0, failures)
        if lines is not None:
            check_table(workload, lines, failures)
        lines = run(workload, 1, failures)
        if lines is not None:
            if not any(line.startswith("self time by layer") for line in lines):
                failures.append(f"{workload}: traced run printed no self-time table")
            dumps = [line.split(": ", 1)[1] for line in lines if line.startswith("span dump: ")]
            if not dumps or not os.path.getsize(dumps[0]):
                failures.append(f"{workload}: traced run wrote no span dump")
        print(f"{workload}: checked", flush=True)
    check_bare_directory(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: " + ("ok" if not failures else f"{len(failures)} failures"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
