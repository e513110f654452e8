#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench CMake project (perfbench/CMakeLists.txt, which
compiles ../src from source) into .bench_build/perfbench at the root of
the checkout, runs the statistics self-test, then runs one workload and
passes its output through. The last line of standard output is the
result JSON; build logs go to standard error.

An untraced run measures the workload in PROCESSES fresh processes of
seconds / PROCESSES each and reports, per metric, the median over them.
On the 4-vCPU VM this was built on, one process's figures stay within a
few percent from session to session, while consecutive processes of the
same seed differed by up to 15 % (C1 epoch medians 295-371 ms over ten
10-s runs): most of the run-to-run spread is fixed when a process
starts, so only more processes absorb it. A traced run is one process,
so all its spans land in one file.

Exit status: 0 measured and correct; 1 a correctness gate failed; 2
bad arguments, a failed build or self-test, or a run that did not end
in time; 3 an invalid measurement (see perfbench/main.cc).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("train-subset", "serve-ecommerce", "net-recommend")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")

# A run ends within 180 s; the first run in a checkout, which builds,
# within 900 s.
RUN_LIMIT_S = 175
FIRST_RUN_LIMIT_S = 880
PROCESSES = 5


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def step(cmd, limit_s):
    """Run a build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=limit_s)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s: %s" % (" ".join(cmd), e), file=sys.stderr)
        return False
    return done.returncode == 0


def describe():
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    text = done.stdout.strip()
    return text if done.returncode == 0 and text else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are not in this checkout")
    first = not os.path.isfile(os.path.join(BUILD, "perfbench"))
    limit = FIRST_RUN_LIMIT_S if first else RUN_LIMIT_S
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not step(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], limit):
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not step(["cmake", "--build", BUILD, "-j", jobs, "--target",
                 "perfbench", "perfbench_selftest"],
                limit - (time.monotonic() - start)):
        fail("build failed")
    if not step([os.path.join(BUILD, "perfbench_selftest")], 60):
        fail("self-test failed")

    deadline = start + limit
    text = describe()
    parts = 1 if args.trace == "1" else PROCESSES
    results = []
    for _ in range(parts):
        cmd = [os.path.join(BUILD, "perfbench"), args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds / parts),
               "--trace", args.trace, "--out-dir", OUT, "--describe", text]
        code, last = run_part(cmd, deadline)
        if code == 2 or last is None:
            fail("the %s run failed (exit %d)" % (args.workload, code))
        results.append((code, last))
    print(json.dumps(combine([r for _, r in results])))
    sys.stdout.flush()
    codes = [c for c, _ in results]
    return 1 if 1 in codes else (3 if 3 in codes else 0)


def run_part(cmd, deadline):
    """Run one measuring process; pass its report through, keep its JSON."""
    # Its own process group, so a timeout also stops the server child.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish in time" % " ".join(cmd[:2]))
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = out.rstrip("\n").split("\n")
    try:
        last = json.loads(lines[-1])
    except (ValueError, IndexError):
        last = None
    # The report goes through; the result line is printed once, combined.
    for line in lines[:-1] if last is not None else lines:
        print(line)
    return proc.returncode, last


def combine(results):
    """One result: counts summed, each metric the median over processes."""
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
