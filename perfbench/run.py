#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
library, hs_worker, hs_agent, hs_server and the benchmark driver
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later runs only rebuild what changed. Scratch files (shard files,
agent work dirs, snapshots, span dumps) stay under that directory too.

The driver prints a table of every metric with its unit and sample count and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}, the
metrics being BENCHMARK.json's end_to_end set (--trace 0) or its per_layer
set (--trace 1). The exit status is non-zero when an output was wrong or the
benchmark could not run; nothing is printed as a result then.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grid", "aimix_storm", "fabric_grid", "service_mix")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    cmake_dir = os.path.join(build_dir, "perfbench")
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", cmake_dir, "--target", "hs_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-40:]))
                fail(f"build failed: {' '.join(step)} (log: {log_path})")
    return os.path.join(cmake_dir, "bin", "hs_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no repository sources in {ROOT}; the benchmark builds them from source")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)

    with open(os.path.join(HERE, "contract.json")) as f:
        contract = json.load(f)
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(build_dir, "perfbench-run", run_name)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(os.path.join(work_dir, "tmp"))
    command = [
        binary,
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--work-dir={work_dir}",
        f"--expect-digest={contract['digests'].get(args.workload, '')}",
    ]
    if args.trace:
        spans_dir = os.path.join(build_dir, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        command.append(f"--spans={os.path.join(spans_dir, run_name + '.jsonl')}")
    # Anything a child puts in a temp dir stays inside the checkout.
    env = dict(os.environ, TMPDIR=os.path.join(work_dir, "tmp"))
    # Its own process group, so a hung run takes its servers and agents down
    # with it.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish in time")
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(stdout)
        fail(f"{args.workload} printed no result (exit {proc.returncode})")

    want = expected_metrics(args.trace)
    have = {name: m["unit"] for name, m in result["metrics"].items()}
    if have != want:
        fail(f"metrics {sorted(have.items())} do not match BENCHMARK.json {sorted(want.items())}")
    print("\n".join(lines[:-1]))
    if args.trace:
        print(f"span dump: {command[-1].split('=', 1)[1]}")
    shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
