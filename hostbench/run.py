#!/usr/bin/env python3
"""Host-time benchmark for the Rockcress simulator.

Run from the repository root:

    python3 hostbench/run.py --workload fig10_sweep --seed 1 --seconds 10 --trace 0

It builds hostbench/ together with the simulator sources in src/ into
$CARGO_TARGET_DIR/hostbench (default .bench_build/hostbench), measures
set-up time as the median of several set-up-only launches, runs the
workload, prints every metric with its unit, and ends with one JSON line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end list with --trace 0 and its
per_layer list with --trace 1. The exit status is 0 only when every
correctness check passed. See hostbench/README.md for the workloads and
metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
SETUP_LAUNCHES = 101
# A run must end within 180 s of the build; the workload gets what is left.
DEADLINE_S = 175
BUILD_TIMEOUT_S = 850


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "hostbench"


def build():
    """Configure and build the benchmark program incrementally; return its path."""
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(out), "--target", "hostbench", "-j", jobs]]
    for cmd in steps:
        # A session of its own, so a timeout also stops make's compilers.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True,
                                start_new_session=True)
        try:
            output, _ = proc.communicate(timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError("build timed out: " + " ".join(cmd))
        if proc.returncode != 0:
            log(output[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return out / "hostbench"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--subset", type=int,
                   help="only the first N points of the workload (self-test)")
    p.add_argument("--force-fail", action="store_true",
                   help="give the first point a tiny watchdog (self-test)")
    a = p.parse_args()

    spec = json.loads(SPEC.read_text())
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"run.py: unknown workload {a.workload!r}")
        return 2
    wanted = spec["per_layer" if a.trace else "end_to_end"]

    try:
        binary = build()
    except (RuntimeError, OSError) as e:
        log(f"run.py: {e}")
        return 1
    # The first run in a checkout may spend long on the build; the
    # 180 s limit applies from here.
    start = time.monotonic()

    work = build_dir() / "work"
    common = ["--workload", a.workload, "--work-dir", str(work)]
    if a.subset:
        common += ["--subset", str(a.subset)]
    if a.force_fail:
        common.append("--force-fail")

    # setup_s: process start to the first timed operation. A set-up-only
    # launch reports it against the spawn time on the same monotonic
    # clock, so exit and the wait for it do not count.
    setups = []
    for _ in range(SETUP_LAUNCHES):
        spawn = str(time.monotonic_ns())
        done = subprocess.run([str(binary), *common, "--setup-only",
                               "--spawn-ns", spawn],
                              stdout=subprocess.PIPE, text=True, timeout=60)
        if done.returncode != 0 or not done.stdout.startswith("setup_s "):
            log("run.py: set-up failed")
            return 1
        setups.append(float(done.stdout.split()[1]))

    trace_out = build_dir() / "traces" / f"{a.workload}-seed{a.seed}.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    # Any integer seed works: the program takes it modulo 2^64.
    cmd = [str(binary), *common, "--seed", str(a.seed % 2**64),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--trace-out", str(trace_out)]
    left = DEADLINE_S - (time.monotonic() - start)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(left, 1))
    except subprocess.TimeoutExpired:
        log("run.py: workload timed out")
        return 1
    lines = done.stdout.splitlines()
    try:
        if done.returncode not in (0, 1):
            raise ValueError(f"exit status {done.returncode}")
        result = json.loads(lines[-1])
    except (ValueError, IndexError) as e:
        log(f"run.py: hostbench gave no result ({e})")
        return 1
    for line in lines[:-1]:
        print(line)

    metrics = dict(result["metrics"])
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"metric {'setup_s':<28} {metrics['setup_s']['value']:.9g} s"
          f" (median of {SETUP_LAUNCHES} set-up launches)")
    chosen = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"run.py: metric {m['name']} missing or not in {m['unit']}")
            return 1
        chosen[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = done.returncode == 0 and result["correct"]
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": chosen}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
