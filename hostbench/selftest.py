#!/usr/bin/env python3
"""Self-test of the host-time benchmark on a tiny subset of points.

Run from the repository root (builds like run.py, then takes about a
minute):

    python3 hostbench/selftest.py

Through the benchmark's own command it checks that
- every workload prints every metric of BENCHMARK.json by name with its
  declared unit, and the result line parses with exactly the keys
  correct, attempted, failed and metrics;
- the traced run writes Chrome trace-event JSON whose spans carry their
  point id;
- the seed is echoed, permutes the submission order, and repeats it;
- a point forced to fail (a 64-cycle watchdog) is counted once in
  fail_frac and the exit status while the other points still run.
It exits nonzero at the first failed check.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# The cheapest leading points of each workload's canonical order.
SUBSET = {"fig10_sweep": 4, "sim_busy": 1, "sim_quiet": 1, "verify_suite": 4}


def run(*args):
    cmd = [sys.executable, str(HERE / "run.py"), "--seconds", "0", *args]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, lines, result


def check(ok, what):
    if not ok:
        print(f"selftest: FAIL {what}")
        sys.exit(1)


def printed(lines):
    """The 'metric <name> <value> <unit>' lines as {name: (value, unit)}."""
    out = {}
    for line in lines:
        m = re.match(r"metric (\S+)\s+(\S+) (\S+)", line)
        if m:
            out[m[1]] = (float(m[2]), m[3])
    return out


def order(lines):
    return next(line.split()[1:] for line in lines if line.startswith("order"))


def test_metrics(workload):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for trace in (0, 1):
        what = f"{workload} --trace {trace}"
        rc, lines, res = run("--workload", workload, "--seed", "3",
                             "--trace", str(trace), "--subset", str(SUBSET[workload]))
        check(rc == 0 and res is not None, f"{what}: exit {rc} or no result line")
        check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys")
        check(res["correct"] is True and res["failed"] == 0, f"{what}: not correct")
        check(type(res["attempted"]) is int and res["attempted"] >= 1, f"{what}: attempted")
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        check(set(res["metrics"]) == {m["name"] for m in wanted}, f"{what}: metric names")
        for m in wanted:
            got = res["metrics"][m["name"]]
            check(type(got["value"]) in (int, float) and got["unit"] == m["unit"],
                  f"{what}: {m['name']} = {got}")
        check(any(line.startswith(f"workload {workload} seed 3 ") for line in lines),
              f"{what}: seed not echoed")
        shown = printed(lines)
        names = units if trace else {m["name"] for m in SPEC["end_to_end"]}
        for name in names:
            check(name in shown and shown[name][1] == units[name],
                  f"{what}: {name} not printed with unit {units[name]}")
        if trace:
            path = next(line.split()[1] for line in lines if line.startswith("trace "))
            events = json.loads(Path(path).read_text())["traceEvents"]
            spans = [e for e in events if e["ph"] == "X"]
            check(spans and all("point" in e["args"] for e in spans
                                if not e["name"].startswith("bench.")),
                  f"{what}: trace spans without point ids")
        print(f"selftest: ok {what}")


def test_seed():
    args = ("--workload", "verify_suite", "--subset", "8")
    orders = [order(run(*args, "--seed", str(s))[1]) for s in (1, 1, 2, 3, 4)]
    check(orders[0] == orders[1], "the same seed gives another order")
    check(all(sorted(o) == sorted(orders[0]) for o in orders), "seeds change the point set")
    check(len({tuple(o) for o in orders}) > 1, "seeds do not permute the order")
    print("selftest: ok seed")


def test_forced_failure(workload, subset):
    rc, lines, res = run("--workload", workload, "--subset", str(subset), "--force-fail")
    what = f"{workload} --force-fail"
    check(rc != 0, f"{what}: exit status 0")
    check(res is not None and res["correct"] is False, f"{what}: no failing result line")
    check(res["attempted"] == subset, f"{what}: attempted {res['attempted']} points, not {subset}")
    check(res["failed"] == 1, f"{what}: {res['failed']} points failed, not 1")
    frac = printed(lines)["fail_frac"][0]
    check(abs(frac - res["failed"] / res["attempted"]) < 1e-9, f"{what}: fail_frac {frac}")
    print(f"selftest: ok {what}")


def main():
    for workload in SUBSET:
        test_metrics(workload)
    test_seed()
    test_forced_failure("sim_busy", 2)
    test_forced_failure("fig10_sweep", 4)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
