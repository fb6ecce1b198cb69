"""Metric derivations, output checks and the behaviour fingerprint.

The C++ driver (driver.cc) only measures: it prints one JSON object per
line -- "setup", "sweep", "start", "run" and "end" records -- and,
with tracing on, writes its spans to a file. Everything the benchmark
reports is derived here, from those records, so each derivation can be
tested without running the simulator (test_metrics.py).

Every metric is either *host* (time or memory the simulator uses) or
*simulated* (what the modelled machine does). Simulated metrics are
deterministic for a given seed: a change that only speeds up the
simulator must leave them, and the fingerprint, exactly as they were.
"""

import json
import statistics

# name -> (unit, kind). Printed with --trace 0. Order is output order.
END_TO_END = {
    "sim_ops_per_s": ("1/s", "host"),
    "setup_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "vmsp_accuracy_pct": ("%", "simulated"),
    "miss_lat_p99_ticks": ("ticks", "simulated"),
}

# name -> (unit, kind). Printed with --trace 1.
PER_LAYER = {
    "workload.gen_s": ("s", "host"),
    "workload.compile_s": ("s", "host"),
    "workload.source_ops": ("count", "simulated"),
    "workload.compiled_ops": ("count", "simulated"),
    "harness.cache_generations": ("count", "host"),
    "harness.cache_hits": ("count", "host"),
    "harness.run_s_p50": ("s", "host"),
    "harness.run_s_max": ("s", "host"),
    "harness.parallel_eff": ("ratio", "host"),
    "harness.self_s": ("s", "host"),
    "dsm.build_s": ("s", "host"),
    "dsm.run_s": ("s", "host"),
    "dsm.read_hits": ("count", "simulated"),
    "dsm.read_misses": ("count", "simulated"),
    "dsm.write_misses": ("count", "simulated"),
    "dsm.dir_requests": ("count", "simulated"),
    "dsm.invals": ("count", "simulated"),
    "dsm.recalls": ("count", "simulated"),
    "dsm.req_wait_pct": ("%", "simulated"),
    "dsm.miss_lat_p50_ticks": ("ticks", "simulated"),
    "dsm.retries": ("count", "simulated"),
    "dsm.nacks": ("count", "simulated"),
    "dsm.timeouts": ("count", "simulated"),
    "fault.rehome_syncs": ("count", "simulated"),
    "fault.shard_syncs": ("count", "simulated"),
    "sim.events": ("count", "simulated"),
    "sim.events_per_msg": ("ratio", "simulated"),
    "sim.ns_per_event": ("ns", "host"),
    "net.messages": ("count", "simulated"),
    "net.ns_per_msg": ("ns", "host"),
    "net.queueing_cycles": ("ticks", "simulated"),
    "net.link_queueing_cycles": ("ticks", "simulated"),
    "net.link_drops": ("count", "simulated"),
    "net.retransmits": ("count", "simulated"),
    "pred.observed": ("count", "simulated"),
    "pred.predicted": ("count", "simulated"),
    "pred.correct": ("count", "simulated"),
    "pred.accuracy_pct": ("%", "simulated"),
    "pred.coverage_pct": ("%", "simulated"),
    "pred.pte_total": ("count", "simulated"),
    "pred.bytes_per_block": ("bytes", "simulated"),
    "pred.observe_s": ("s", "host"),
    "spec.pushes": ("count", "simulated"),
    "spec.served": ("count", "simulated"),
    "spec.useful_ratio": ("ratio", "simulated"),
    "spec.dropped": ("count", "simulated"),
    "spec.swi_premature": ("count", "simulated"),
    "spec.swi_suppressed": ("count", "simulated"),
    "spec.swi_exec_pct": ("%", "simulated"),
    "spec.fr_exec_pct": ("%", "simulated"),
    "trace.overhead_s": ("s", "host"),
    "trace.overhead_pct": ("%", "host"),
    "trace.spans": ("count", "host"),
}

# The paper's averages (Figure 9, Figures 7-8), as name -> (value,
# the workload that runs the paper's configuration). The model has no
# other reference: beyond these three points it is unvalidated.
PAPER = {
    "spec.swi_exec_pct": (88.0, "paper-spec"),
    "spec.fr_exec_pct": (92.0, "paper-spec"),
    "vmsp_accuracy_pct": (93.0, "observe-depth"),
}


# ---------------------------------------------------------------------
# Small derivations
# ---------------------------------------------------------------------

def ratio(part, whole):
    """part / whole, 0 when the base is 0 (a layer that did no work)."""
    return part / whole if whole else 0.0


def pct(part, whole):
    return 100.0 * ratio(part, whole)


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def merge_buckets(histograms):
    """Bucket-wise sum of sparse [[bucket, count], ...] histograms."""
    merged = {}
    for hist in histograms:
        for bucket, count in hist:
            merged[bucket] = merged.get(bucket, 0) + count
    return merged


def bucket_lo(i):
    return 0 if i == 0 else 1 << (i - 1)


def bucket_hi(i):
    if i == 0:
        return 0
    return (1 << 64) - 1 if i >= 64 else (1 << i) - 1


def percentile(buckets, p):
    """The simulator's Histogram::percentile over log2 buckets: linear
    interpolation inside the covering bucket, 0 when empty."""
    count = sum(buckets.values())
    if count == 0:
        return 0.0
    rank = max(p / 100.0 * count, 1.0)
    cum = 0
    for i in sorted(buckets):
        n = buckets[i]
        if n == 0:
            continue
        if cum + n >= rank:
            frac = (rank - cum) / n
            return bucket_lo(i) + (bucket_hi(i) - bucket_lo(i)) * frac
        cum += n
    return float(bucket_hi(64))


FNV_OFFSET = 0xcbf29ce484222325


def fnv1a64(data, h=FNV_OFFSET):
    for byte in data:
        h ^= byte
        h = (h * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h


def fingerprint(records):
    """64-bit FNV-1a over every record's simulated counters, in order.
    Key order inside a record does not matter; values and run order
    do."""
    h = FNV_OFFSET
    for rec in records:
        h = fnv1a64(json.dumps(rec, sort_keys=True).encode(), h)
    return h


def dur(span):
    return span["end"] - span["start"]


def self_time(span, children):
    """A span's duration minus the part of it its children cover."""
    covered = 0.0
    cur = None
    for s, e in sorted((max(c["start"], span["start"]),
                        min(c["end"], span["end"])) for c in children):
        if e <= s:
            continue
        if cur and s <= cur[1]:
            cur[1] = max(cur[1], e)
        else:
            if cur:
                covered += cur[1] - cur[0]
            cur = [s, e]
    if cur:
        covered += cur[1] - cur[0]
    return dur(span) - covered


# ---------------------------------------------------------------------
# Parsing the driver's records
# ---------------------------------------------------------------------

def same_cell(a, b):
    return all(a[k] == b[k] for k in ("phase", "sweep", "cell", "kind"))


class Capture:
    """The driver's output, grouped by phase."""

    def __init__(self):
        self.setups = []
        self.sweeps = {"ref": [], "timed": [], "traced": []}
        self.ablation = {}  # sweep index -> [run records]
        self.end = None
        self.runs = 0
        # The last "start" record with no "run" record yet: the cell a
        # driver that died was running.
        self.in_flight = None

    @classmethod
    def parse(cls, lines):
        cap = cls()
        current = None
        for line in lines:
            line = line.strip()
            if not line.startswith("{"):
                continue
            rec = json.loads(line)
            kind = rec.get("type")
            if kind == "setup":
                cap.setups.append(rec)
            elif kind == "sweep":
                current = dict(rec, runs=[])
                cap.sweeps[rec["phase"]].append(current)
            elif kind == "start":
                cap.in_flight = rec
            elif kind == "run":
                cap.runs += 1
                if cap.in_flight and same_cell(cap.in_flight, rec):
                    cap.in_flight = None
                if rec["phase"] == "ablation":
                    cap.ablation.setdefault(rec["sweep"], []).append(rec)
                else:
                    current["runs"].append(rec)
            elif kind == "end":
                cap.end = rec
        return cap

    @property
    def ref_runs(self):
        return self.sweeps["ref"][0]["runs"] if self.sweeps["ref"] else []

    def fingerprint(self):
        """Over the reference sweep and its ablation; every repeat is
        checked equal to these, so they stand for the whole run."""
        return fingerprint([r["counters"] for r in self.ref_runs] +
                           [r["counters"] for r in
                            self.ablation.get(-1, [])])


# ---------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------

def protocol_counters(counters):
    """Everything but predictor state: what observers must not move."""
    return {k: v for k, v in counters.items() if k != "preds"}


def check(cap):
    """Check every run; returns (failed run count, [messages]).

    - every run completed (no tick-limit trip);
    - every repeat of a config -- timed, traced, parallel -- has the
      reference sweep's counters exactly (the reference is serial, so
      this is also the serial == parallel check);
    - every observer run matches the bare run of its app on every
      protocol counter (observers are passive).
    """
    failed = 0
    msgs = []
    ref = {r["cell"]: r["counters"] for r in cap.ref_runs}
    bare_ref = {r["app"]: protocol_counters(r["counters"])
                for r in cap.ablation.get(-1, [])}

    def fail(rec, why):
        nonlocal failed
        failed += 1
        if len(msgs) < 20:
            msgs.append("%s sweep %s cell %s (%s %s %s): %s" % (
                rec["phase"], rec["sweep"], rec["cell"], rec["app"],
                rec["kind"], rec["mode"], why))

    for phase in ("ref", "timed", "traced"):
        for sweep in cap.sweeps[phase]:
            for rec in sweep["runs"]:
                c = rec["counters"]
                if c["status"] != "completed":
                    fail(rec, "status " + c["status"])
                elif phase != "ref" and c != ref.get(rec["cell"]):
                    fail(rec, "counters differ from the reference run")
                elif (rec["kind"] == "accuracy" and bare_ref and
                      protocol_counters(c) != bare_ref.get(rec["app"])):
                    fail(rec, "observers perturbed the run")
    for runs in cap.ablation.values():
        for rec in runs:
            c = rec["counters"]
            if c["status"] != "completed":
                fail(rec, "status " + c["status"])
            elif protocol_counters(c) != bare_ref.get(rec["app"]):
                fail(rec, "bare run differs from its reference")
    return failed, msgs


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------

def vmsp_accuracy(runs):
    """Mean VMSP depth-1 accuracy over the Base-DSM runs that carry one
    (the speculation predictor of a Base run, or the depth-1 observer);
    on observe-depth this is Figure 7's VMSP average."""
    return mean([pct(p["correct"], p["predicted"])
                 for r in runs if r["mode"] == "base"
                 for p in r["counters"]["preds"]
                 if p["name"] == "VMSP" and p["depth"] == 1])


def cell_group(r):
    return (r["app"], r["procs"], r["topology"], r["faulted"])


def exec_pct(runs, mode):
    """Mean over cells of the mode's exec ticks as % of Base-DSM on the
    same app, machine and fault plan (Figure 9's average row)."""
    base = {cell_group(r): r["counters"]["exec_ticks"] for r in runs
            if r["kind"] == "spec" and r["mode"] == "base"}
    return mean([pct(r["counters"]["exec_ticks"], base[cell_group(r)])
                 for r in runs
                 if r["kind"] == "spec" and r["mode"] == mode
                 and cell_group(r) in base])


# Host times are wall-clock medians: over the timed sweeps of the run,
# and over its set-ups. The driver moves to the next CPU before each
# serial run and each workload it generates (CpuRotation in driver.cc),
# so one CPU slowed down by another tenant cannot slow a whole run.

def ops_per_s(sweep):
    """Simulated source ops per wall-clock second, for one timed sweep."""
    return sweep["source_ops"] / sweep["wall_s"]


def end_to_end(cap):
    runs = cap.ref_runs
    lat = merge_buckets(r["counters"]["miss_lat"] for r in runs)
    return {
        "sim_ops_per_s": median([ops_per_s(s)
                                 for s in cap.sweeps["timed"]]),
        "setup_s": median([s["seconds"] for s in cap.setups]),
        "peak_rss_mb": cap.end["peak_rss_kb"] / 1024.0,
        "vmsp_accuracy_pct": vmsp_accuracy(runs),
        "miss_lat_p99_ticks": percentile(lat, 99),
    }


def model_metrics(cap):
    """Per-layer simulated counters of the reference sweep."""
    runs = cap.ref_runs

    def total(key):
        return sum(r["counters"][key] for r in runs)

    preds = [p for r in runs for p in r["counters"]["preds"]]

    def psum(key):
        return sum(p[key] for p in preds)

    pushes = total("spec_sent_fr") + total("spec_sent_swi")
    served = total("spec_served_fr") + total("spec_served_swi")
    lat = merge_buckets(r["counters"]["miss_lat"] for r in runs)
    setup = cap.setups[0] if cap.setups else {}
    return {
        "workload.source_ops": setup.get("source_ops", 0),
        "workload.compiled_ops": setup.get("compiled_ops", 0),
        "dsm.read_hits": total("read_hits"),
        "dsm.read_misses": total("demand_reads"),
        "dsm.write_misses": total("demand_writes"),
        "dsm.dir_requests": total("dir_requests"),
        "dsm.invals": total("invals"),
        "dsm.recalls": total("recalls"),
        "dsm.req_wait_pct": mean([pct(r["counters"]["avg_request_wait"],
                                      r["counters"]["exec_ticks"])
                                  for r in runs]),
        "dsm.miss_lat_p50_ticks": percentile(lat, 50),
        "dsm.retries": total("retries"),
        "dsm.nacks": total("nacks"),
        "dsm.timeouts": total("timeouts"),
        "fault.rehome_syncs": total("rehome_syncs"),
        "fault.shard_syncs": total("shard_syncs"),
        "sim.events": total("events"),
        "sim.events_per_msg": ratio(total("events"), total("messages")),
        "net.messages": total("messages"),
        "net.queueing_cycles": total("queueing_cycles"),
        "net.link_queueing_cycles": total("link_queueing_cycles"),
        "net.link_drops": total("link_drops"),
        "net.retransmits": total("retransmits"),
        "pred.observed": psum("observed"),
        "pred.predicted": psum("predicted"),
        "pred.correct": psum("correct"),
        "pred.accuracy_pct": pct(psum("correct"), psum("predicted")),
        "pred.coverage_pct": pct(psum("predicted"), psum("observed")),
        "pred.pte_total": psum("pte_total"),
        "pred.bytes_per_block": ratio(
            sum(p["bytes_per_block"] * p["blocks"] for p in preds),
            psum("blocks")),
        "spec.pushes": pushes,
        "spec.served": served,
        "spec.useful_ratio": ratio(served, pushes),
        "spec.dropped": total("spec_dropped"),
        "spec.swi_premature": total("swi_premature"),
        "spec.swi_suppressed": total("swi_suppressed"),
        "spec.swi_exec_pct": exec_pct(runs, "swi"),
        "spec.fr_exec_pct": exec_pct(runs, "fr"),
    }


class SpanTree:
    """One root span, its descendants grouped by name, and every span's
    direct children (for self time)."""

    def __init__(self, root, children):
        self.root = root
        self.children = children
        self.by_name = {}
        stack = [root["id"]]
        while stack:
            for c in children.get(stack.pop(), []):
                self.by_name.setdefault(c["name"], []).append(c)
                stack.append(c["id"])

    def named(self, name):
        return self.by_name.get(name, [])

    def total(self, name):
        return sum(dur(s) for s in self.named(name))


def span_trees(spans, root_name):
    """Root spans named @p root_name, in start order."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    roots = sorted((s for s in spans
                    if s["parent"] == 0 and s["name"] == root_name),
                   key=lambda s: s["start"])
    return [SpanTree(r, children) for r in roots]


def host_layers(cap, spans, model):
    """Per-layer host time, attributed from the driver's spans: the
    median over traced sweeps of each layer's summed span time."""
    sweeps = span_trees(spans, "harness.sweep")
    setups = span_trees(spans, "setup")
    ablations = span_trees(spans, "ablation")
    jobs = cap.end["jobs"]

    def per_sweep(fn):
        return median([fn(t) for t in sweeps])

    run_s = per_sweep(lambda t: t.total("dsm.run"))

    # Observers are passive, so a run with them minus the bare run of
    # the same compiled workload is the time spent observing. The k-th
    # ablation follows the k-th traced sweep.
    app_of = {r["cell"]: r["app"] for r in cap.ref_runs}
    observe = []
    for t, bare in zip(sweeps, ablations):
        bare_s = {app_of[s["run"]]: dur(s)
                  for s in bare.named("harness.job")}
        observe.append(sum(dur(s) - bare_s[app_of[s["run"]]]
                           for s in t.named("harness.job")))

    timed = median([s["wall_s"] for s in cap.sweeps["timed"]])
    traced = median([s["wall_s"] for s in cap.sweeps["traced"]])
    return {
        "workload.gen_s": median([t.total("workload.gen")
                                  for t in setups]),
        "workload.compile_s": median([t.total("workload.compile")
                                      for t in setups]),
        "harness.cache_generations": median(
            [s["cache_generations"] for s in cap.sweeps["traced"]]),
        "harness.cache_hits": median(
            [s["cache_hits"] for s in cap.sweeps["traced"]]),
        "harness.run_s_p50": median([dur(s) for t in sweeps
                                     for s in t.named("harness.job")]),
        "harness.run_s_max": per_sweep(
            lambda t: max(map(dur, t.named("harness.job")), default=0)),
        "harness.parallel_eff": per_sweep(
            lambda t: ratio(t.total("harness.job"),
                            jobs * dur(t.root))),
        "harness.self_s": per_sweep(
            lambda t: sum(self_time(s, t.children.get(s["id"], []))
                          for s in t.named("harness.job"))),
        "dsm.build_s": per_sweep(lambda t: t.total("dsm.build")),
        "dsm.run_s": run_s,
        "sim.ns_per_event": 1e9 * ratio(run_s, model["sim.events"]),
        "net.ns_per_msg": 1e9 * ratio(run_s, model["net.messages"]),
        "pred.observe_s": median(observe),
        "trace.overhead_s": traced - timed,
        "trace.overhead_pct": pct(traced - timed, timed),
        "trace.spans": len(spans),
    }


def result(cap, trace, spans, crashed):
    """The benchmark's result object (the last line it prints), the
    check messages, and every value derived (for the summary)."""
    failed, msgs = check(cap)
    attempted = cap.runs
    if crashed:
        # The run in flight when the process died is lost, not
        # dropped: it counts as attempted and failed.
        attempted += 1
        failed += 1
        c = cap.in_flight
        msgs.append(
            "driver died in %s cell %s (%s %s %s, %d procs, %s%s)" % (
                c["phase"], c["cell"], c["app"], c["kind"], c["mode"],
                c["procs"], c["topology"],
                ", faulted" if c["faulted"] else "")
            if c else
            "driver died outside the reference sweep (set-up or a timed "
            "sweep)")
    if not cap.ref_runs or not cap.sweeps["timed"] or cap.end is None:
        return ({"correct": False, "attempted": max(attempted, 1),
                 "failed": max(failed, 1), "metrics": {}}, msgs, {})
    values = end_to_end(cap)
    values.update(model_metrics(cap))
    if trace:
        values.update(host_layers(cap, spans, values))
    table = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in table.items()}
    return ({"correct": failed == 0, "attempted": attempted,
             "failed": failed, "metrics": metrics}, msgs, values)
