#!/usr/bin/env python3
"""Validate a BENCH_core.json record and gate on perf regressions.

Two jobs, both against the mspdsm-bench-core-v1 schema that
bench/bench_common.hh writes:

 1. schema validation -- the record must carry the schema tag, the
    headline metrics, and a well-formed bench list (every entry named,
    with consistent items/seconds/items_per_sec numbers);
 2. regression gate -- when --baseline is given (normally the
    BENCH_core.json committed at the repo root), any bench whose
    items_per_sec fell more than --max-regression below the baseline
    fails the check.

Exit status: 0 ok, 1 validation/regression failure, 2 usage error.

CI runs this against a --smoke record produced on the runner itself.
Absolute throughput differs between the perf-log container and CI
machines, so the committed baseline is only a coarse tripwire there;
the authoritative numbers are the ROADMAP perf log's, measured on one
container. Regenerate the committed record with `bench_core -o
BENCH_core.json` on that container when the hot path changes.
"""

import argparse
import json
import math
import sys

SCHEMA = "mspdsm-bench-core-v1"
REQUIRED_TOP = ["schema", "events_per_sec", "lookups_per_sec",
                "sim_events_per_message", "peak_rss_bytes", "benches"]
REQUIRED_BENCH = ["name", "items", "seconds", "items_per_sec"]
EVPM_CEILING = 1.75

# Benches every record must carry: dropping one silently would blind
# the regression gate to that path. Extend when bench_core grows.
REQUIRED_BENCH_NAMES = [
    "eventq/throughput",
    "eventq/far",
    "eventq/self_chain",
    "sim/messages",
    "sim/messages_compiled",
    "sim/messages_spec",
    "net/route",
    "net/ingress_batch",
    "workload/compile",
    "pred/observe_mix",
    "pred/observe_cold",
    "pred/observe_deep",
    "pred/spec_query",
]


def fail(msg):
    print(f"check_bench_core: FAIL: {msg}", file=sys.stderr)
    return 1


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench_core: cannot read {path}: {e}",
              file=sys.stderr)
        return None


def validate(rec, path):
    """Schema-validate one record; returns a list of error strings."""
    errs = []
    if not isinstance(rec, dict):
        return [f"{path}: top level is not an object"]
    for key in REQUIRED_TOP:
        if key not in rec:
            errs.append(f"{path}: missing key '{key}'")
    if rec.get("schema") != SCHEMA:
        errs.append(f"{path}: schema is '{rec.get('schema')}', "
                    f"expected '{SCHEMA}'")
    for key in ("events_per_sec", "lookups_per_sec",
                "sim_events_per_message", "peak_rss_bytes"):
        v = rec.get(key)
        if not isinstance(v, (int, float)) or not math.isfinite(v) \
                or v < 0:
            errs.append(f"{path}: '{key}' is not a finite "
                        f"non-negative number: {v!r}")
    # The deterministic transport-efficiency headline: unlike the
    # throughput benches this ratio is machine-independent, so it is
    # pinned absolutely. The batched event layer, with every handler
    # acting on the clock, holds the dense em3d run at 1.652 dispatches
    # per message (the retired two-stage NI path needed ~2.5). The
    # ceiling leaves ~6% headroom for protocol changes; crossing it
    # means a per-message event population grew back.
    evpm = rec.get("sim_events_per_message")
    if isinstance(evpm, (int, float)) and evpm > EVPM_CEILING:
        errs.append(f"{path}: sim_events_per_message {evpm} exceeds "
                    f"the {EVPM_CEILING} ceiling")
    benches = rec.get("benches")
    if not isinstance(benches, list) or not benches:
        errs.append(f"{path}: 'benches' is not a non-empty list")
        return errs
    seen = set()
    for i, b in enumerate(benches):
        where = f"{path}: benches[{i}]"
        if not isinstance(b, dict):
            errs.append(f"{where}: not an object")
            continue
        for key in REQUIRED_BENCH:
            if key not in b:
                errs.append(f"{where}: missing key '{key}'")
        name = b.get("name")
        if not isinstance(name, str) or not name:
            errs.append(f"{where}: bad name {name!r}")
        elif name in seen:
            errs.append(f"{where}: duplicate bench '{name}'")
        else:
            seen.add(name)
        for key in ("items", "seconds", "items_per_sec"):
            v = b.get(key)
            if not isinstance(v, (int, float)) \
                    or not math.isfinite(v) or v < 0:
                errs.append(f"{where}: '{key}' is not a finite "
                            f"non-negative number: {v!r}")
    for name in REQUIRED_BENCH_NAMES:
        if name not in seen:
            errs.append(f"{path}: required bench '{name}' is missing")
    return errs


def main():
    ap = argparse.ArgumentParser(
        description="Validate BENCH_core.json; optionally gate "
                    "against a baseline record.")
    ap.add_argument("record", help="BENCH_core.json to check")
    ap.add_argument("--baseline",
                    help="committed BENCH_core.json to compare against")
    ap.add_argument("--max-regression", type=float, default=0.20,
                    help="fail if a bench drops more than this "
                         "fraction below baseline (default 0.20)")
    args = ap.parse_args()

    rec = load(args.record)
    if rec is None:
        return 1
    errs = validate(rec, args.record)
    for e in errs:
        print(f"check_bench_core: {e}", file=sys.stderr)
    if errs:
        return fail(f"{args.record} does not validate as {SCHEMA}")
    print(f"check_bench_core: {args.record} validates as {SCHEMA} "
          f"({len(rec['benches'])} benches)")

    if not args.baseline:
        return 0
    base = load(args.baseline)
    if base is None:
        return 1
    base_errs = validate(base, args.baseline)
    for e in base_errs:
        print(f"check_bench_core: {e}", file=sys.stderr)
    if base_errs:
        return fail(f"{args.baseline} does not validate as {SCHEMA}")

    floor = 1.0 - args.max_regression
    new = {b["name"]: b["items_per_sec"] for b in rec["benches"]}
    regressions = []
    for b in base["benches"]:
        name, old = b["name"], b["items_per_sec"]
        if name not in new:
            regressions.append(f"{name}: present in baseline but "
                               f"missing from {args.record}")
            continue
        if old > 0 and new[name] < old * floor:
            regressions.append(
                f"{name}: {new[name]:.3g} items/s is "
                f"{100 * (1 - new[name] / old):.1f}% below baseline "
                f"{old:.3g}")
        else:
            delta = 100 * (new[name] / old - 1) if old > 0 else 0.0
            print(f"check_bench_core: {name}: {new[name]:.3g} "
                  f"items/s ({delta:+.1f}% vs baseline)")
    for r in regressions:
        print(f"check_bench_core: REGRESSION {r}", file=sys.stderr)
    if regressions:
        return fail(f"{len(regressions)} bench(es) regressed more "
                    f"than {100 * args.max_regression:.0f}% vs "
                    f"{args.baseline}")
    print("check_bench_core: no bench regressed beyond "
          f"{100 * args.max_regression:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
