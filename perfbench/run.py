#!/usr/bin/env python3
"""Run one workload of the mspdsm benchmark and print its metrics.

    python3 perfbench/run.py --workload paper-spec --seed 1 \
        --seconds 20 --trace 0

On first use this builds perfbench/ (the driver plus the simulator
sources under src/) into perfbench/build. It then runs the driver,
checks every simulated output, and prints a summary followed, as the
last line, by one JSON object with the keys "correct", "attempted",
"failed" and "metrics". --trace 0 reports the end-to-end metrics;
--trace 1 runs the traced variant and reports the per-layer ones.
Exit status: 0 when every check passed, 1 when a check failed or the
driver died (the result line is still printed), 2 when the benchmark
could not be built or started. See BENCHMARK.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, "build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("paper-spec", "observe-depth", "mesh-faults",
             "sweep-parallel")
BUILD_TIMEOUT_S = 850
# One invocation must end within 180 s; the driver runs for --seconds
# plus set-up and one reference sweep.
DRIVER_TIMEOUT_S = 165


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally (a no-op when fresh)."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "build.ninja")) and \
            not os.path.exists(os.path.join(BUILD, "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return False
        if rc != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def run_driver(args, spans_path):
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", spans_path]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += "\ndriver killed after %d s" % DRIVER_TIMEOUT_S
    return proc.returncode, out.splitlines(), err


def summary(args, cap, res, values):
    table = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    timed = cap.sweeps["timed"]
    print("workload %s  seed %d  trace %d: %d runs, %d timed sweeps "
          "of %d runs, jobs %d" % (
              args.workload, args.seed, args.trace, cap.runs, len(timed),
              len(timed[0]["runs"]) if timed else 0,
              cap.end["jobs"] if cap.end else 0))
    print("simulated-behaviour fingerprint: %016x" % cap.fingerprint())
    for name, (unit, kind) in table.items():
        if name in values:
            print("  %-28s %16.6f %-6s %s" % (name, values[name], unit,
                                              kind))
    print("host times are medians of %d timed sweeps and %d set-ups" % (
        len(timed), len(cap.setups)))
    print("model vs paper (the paper's averages are the model's only "
          "reference; it is otherwise unvalidated):")
    for name, (ref, workload) in metrics.PAPER.items():
        model = values.get(name, 0.0)
        if model and workload == args.workload:
            print("  %-28s model %6.2f  paper %4.0f  error %+6.2f" % (
                name, model, ref, model - ref))
    print("checks: %s (%d of %d runs failed)" % (
        "passed" if res["correct"] else "FAILED", res["failed"],
        res["attempted"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not build():
        return 2
    spans_path = os.path.join(BUILD, "spans-%s-%d.json" % (
        args.workload, args.seed))
    rc, lines, err = run_driver(args, spans_path)
    cap = metrics.Capture.parse(lines)
    if rc == 2 and cap.runs == 0:
        log("driver refused to start:\n" + err.strip())
        return 2
    crashed = rc != 0
    if crashed:
        log("driver exited with status %d:\n%s" % (
            rc, "\n".join(err.strip().splitlines()[-5:])))
    spans = []
    if args.trace and not crashed:
        with open(spans_path) as f:
            spans = json.load(f)
    res, msgs, values = metrics.result(cap, args.trace, spans, crashed)
    for m in msgs:
        log("check failed: " + m)
    summary(args, cap, res, values)
    print(json.dumps(res), flush=True)
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
