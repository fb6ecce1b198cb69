"""Tests of the benchmark's metric derivations and output checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need no build: every input is a synthetic driver record. The
config-guard test runs the driver binary and is skipped until
perfbench/run.py has built it.
"""

import copy
import json
import os
import subprocess
import unittest

import metrics as m

HERE = os.path.dirname(os.path.abspath(__file__))
DRIVER = os.path.join(HERE, "build", "perfbench_driver")


def counters(**kw):
    c = {"status": "completed", "exec_ticks": 1000,
         "avg_request_wait": 100.0, "avg_mem_wait": 150.0,
         "reads": 10, "writes": 5, "messages": 40, "events": 60,
         "barrier_episodes": 2, "queueing_cycles": 7,
         "link_queueing_cycles": 0, "read_hits": 90, "write_hits": 20,
         "demand_reads": 10, "demand_writes": 5, "dir_requests": 15,
         "invals": 3, "recalls": 1, "spec_sent_fr": 0,
         "spec_sent_swi": 0, "spec_served_fr": 0, "spec_served_swi": 0,
         "spec_dropped": 0, "swi_sent": 0, "swi_premature": 0,
         "swi_suppressed": 0, "retries": 0, "nacks": 0, "timeouts": 0,
         "stale_fills": 0, "rehome_syncs": 0, "shard_syncs": 0,
         "shard_deltas": 0, "link_drops": 0, "retransmits": 0,
         "ops_at_end": 0, "miss_lat": [[8, 15]], "preds": []}
    c.update(kw)
    return c


def pred(name="VMSP", depth=1, observed=100, predicted=80, correct=72,
         pte_total=50, blocks=10, bytes_per_block=12.5):
    return {"name": name, "depth": depth, "observed": observed,
            "predicted": predicted, "correct": correct,
            "pte_total": pte_total, "blocks": blocks,
            "bytes_per_block": bytes_per_block}


def run(cell, app="em3d", kind="spec", mode="base", phase="ref",
        sweep=-1, **kw):
    return {"type": "run", "phase": phase, "sweep": sweep, "cell": cell,
            "app": app, "kind": kind, "mode": mode, "depth": 1,
            "procs": 16, "topology": "crossbar", "faulted": False,
            "counters": counters(**kw)}


def sweep_line(phase, idx, wall, ops=1000):
    return {"type": "sweep", "phase": phase, "sweep": idx,
            "wall_s": wall, "source_ops": ops,
            "runs": 1, "jobs": 1, "cache_generations": 0,
            "cache_hits": 0}


def capture(timed_runs=None, extra=()):
    """A reference sweep of one Base and one SWI run, two timed sweeps
    repeating it, set-up and end records."""
    ref = [run(0, preds=[pred()]), run(1, mode="swi", exec_ticks=800)]
    recs = [{"type": "setup", "rep": i, "seconds": s, "gen_s": s / 2,
             "compile_s": s / 4, "source_ops": 500, "compiled_ops": 480,
             "workloads": 1} for i, s in enumerate((0.3, 0.1, 0.2))]
    recs.append(sweep_line("ref", -1, 9.0))
    recs += ref
    for idx, wall in enumerate((2.0, 4.0)):
        recs.append(sweep_line("timed", idx, wall))
        for r in (timed_runs or ref):
            recs.append(dict(copy.deepcopy(r), phase="timed", sweep=idx))
    recs += list(extra)
    recs.append({"type": "end", "peak_rss_kb": 2048, "jobs": 1,
                 "spans": 0})
    return m.Capture.parse([json.dumps(r) for r in recs])


class Derivations(unittest.TestCase):
    def test_ratio_is_zero_on_a_zero_base(self):
        self.assertEqual(m.ratio(3, 0), 0.0)
        self.assertEqual(m.pct(1, 4), 25.0)

    def test_percentile_interpolates_like_the_histogram(self):
        # Bucket 8 holds [128, 255]; ten samples, rank 5 is half way.
        self.assertAlmostEqual(m.percentile({8: 10}, 50), 128 + 127 * .5)
        self.assertAlmostEqual(m.percentile({8: 10}, 99),
                               128 + 127 * .99)
        self.assertEqual(m.percentile({}, 99), 0.0)
        # Rank clamps to 1: the lowest sample's bucket.
        self.assertEqual(m.percentile({1: 1, 10: 99}, 0.5), 1.0)
        self.assertEqual(m.percentile({0: 5}, 99), 0.0)

    def test_merged_histograms_sum_bucket_wise(self):
        self.assertEqual(m.merge_buckets([[[3, 1], [4, 2]], [[4, 5]]]),
                         {3: 1, 4: 7})

    def test_exec_pct_divides_by_base_of_the_same_cell(self):
        runs = [run(0, app="a", exec_ticks=1000),
                run(1, app="a", mode="swi", exec_ticks=800),
                run(2, app="b", exec_ticks=2000),
                run(3, app="b", mode="swi", exec_ticks=1800)]
        self.assertAlmostEqual(m.exec_pct(runs, "swi"), (80 + 90) / 2)
        self.assertEqual(m.exec_pct(runs, "fr"), 0.0)

    def test_vmsp_accuracy_takes_base_runs_at_depth_one(self):
        runs = [run(0, preds=[pred(correct=72, predicted=80)]),
                run(1, mode="swi", preds=[pred(correct=0)]),
                run(2, kind="accuracy",
                    preds=[pred("MSP", correct=0),
                           pred(depth=2, correct=0),
                           pred(correct=40, predicted=50)])]
        self.assertAlmostEqual(m.vmsp_accuracy(runs), (90 + 80) / 2)

    def test_speculation_ratio_base_is_pushes(self):
        cap = capture()
        cap.sweeps["ref"][0]["runs"][1]["counters"].update(
            spec_sent_swi=4, spec_served_swi=3)
        model = m.model_metrics(cap)
        self.assertEqual(model["spec.pushes"], 4)
        self.assertAlmostEqual(model["spec.useful_ratio"], 0.75)
        self.assertAlmostEqual(model["sim.events_per_msg"], 120 / 80)
        self.assertAlmostEqual(model["spec.swi_exec_pct"], 80.0)

    def test_fnv1a_matches_reference_vectors(self):
        self.assertEqual(m.fnv1a64(b""), 0xcbf29ce484222325)
        self.assertEqual(m.fnv1a64(b"a"), 0xaf63dc4c8601ec8c)
        self.assertEqual(m.fnv1a64(b"foobar"), 0x85944171f73967e8)

    def test_fingerprint_is_stable_and_sensitive(self):
        a = [counters(), counters(exec_ticks=5)]
        reordered_keys = [dict(reversed(list(c.items()))) for c in a]
        self.assertEqual(m.fingerprint(a), m.fingerprint(reordered_keys))
        self.assertNotEqual(m.fingerprint(a), m.fingerprint(a[::-1]))
        changed = copy.deepcopy(a)
        changed[1]["messages"] += 1
        self.assertNotEqual(m.fingerprint(a), m.fingerprint(changed))
        self.assertEqual(capture().fingerprint(), capture().fingerprint())

    def test_self_time_subtracts_the_union_of_children(self):
        span = {"start": 0.0, "end": 10.0}
        kids = [{"start": 1.0, "end": 3.0}, {"start": 2.0, "end": 5.0},
                {"start": 8.0, "end": 12.0}]
        self.assertAlmostEqual(m.self_time(span, kids), 10 - 4 - 2)

    def test_end_to_end_derivations(self):
        e2e = m.end_to_end(capture())
        # Timed sweeps of 1000 ops in 2 s and 4 s of wall-clock time.
        self.assertAlmostEqual(m.ops_per_s(sweep_line("timed", 0, 4.0)),
                               250.0)
        self.assertAlmostEqual(e2e["sim_ops_per_s"], (500 + 250) / 2)
        # Set-ups of 0.3, 0.1 and 0.2 s.
        self.assertAlmostEqual(e2e["setup_s"], 0.2)
        self.assertAlmostEqual(e2e["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(e2e["vmsp_accuracy_pct"], 90.0)
        self.assertAlmostEqual(e2e["miss_lat_p99_ticks"],
                               128 + 127 * .99)


class Checks(unittest.TestCase):
    def test_clean_capture_passes(self):
        res, msgs, _ = m.result(capture(), 0, [], crashed=False)
        self.assertTrue(res["correct"], msgs)
        self.assertEqual((res["attempted"], res["failed"]), (6, 0))

    def test_a_repeat_that_differs_fails(self):
        bad = [run(0, preds=[pred()]),
               run(1, mode="swi", exec_ticks=801)]
        res, msgs, _ = m.result(capture(timed_runs=bad), 0, [], False)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 2)
        self.assertIn("differ", msgs[0])

    def test_a_tick_limit_run_fails(self):
        bad = [run(0, preds=[pred()]),
               run(1, mode="swi", exec_ticks=800, status="tick_limit")]
        res, _, _ = m.result(capture(timed_runs=bad), 0, [], False)
        self.assertEqual(res["failed"], 2)

    def test_observers_that_perturb_the_run_fail(self):
        ref = run(0, kind="accuracy", preds=[pred()])
        bare_ok = run(0, kind="bare", phase="ablation")
        bare_bad = run(0, kind="bare", phase="ablation", messages=41)
        for bare, failed in ((bare_ok, 0), (bare_bad, 3)):
            cap = capture(timed_runs=[ref], extra=[bare])
            cap.sweeps["ref"][0]["runs"] = [ref]
            self.assertEqual(m.check(cap)[0], failed)

    def test_a_dead_driver_counts_as_a_failed_run(self):
        res, _, _ = m.result(capture(), 0, [], crashed=True)
        self.assertFalse(res["correct"])
        self.assertEqual((res["attempted"], res["failed"]), (7, 1))
        res, _, _ = m.result(m.Capture.parse([]), 0, [], crashed=True)
        self.assertEqual((res["attempted"], res["failed"]), (1, 1))

    def test_a_driver_that_dies_names_its_cell_and_keeps_earlier_runs(self):
        def start(rec):
            return {k: v for k, v in rec.items() if k != "counters"} | {
                "type": "start"}

        done, dying = run(0), run(1, app="ocean", mode="swi")
        lines = [sweep_line("ref", -1, 0.0), start(done), done,
                 start(dying)]
        cap = m.Capture.parse([json.dumps(r) for r in lines])
        self.assertEqual(len(cap.ref_runs), 1)
        res, msgs, _ = m.result(cap, 0, [], crashed=True)
        self.assertEqual((res["attempted"], res["failed"]), (2, 1))
        self.assertIn("ref cell 1 (ocean spec swi", msgs[-1])


class Names(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_metric_names_and_units_match_benchmark_json(self):
        for key, table in (("end_to_end", m.END_TO_END),
                           ("per_layer", m.PER_LAYER)):
            declared = {x["name"]: x["unit"] for x in self.bench[key]}
            self.assertEqual(declared,
                             {n: u for n, (u, _) in table.items()})

    def test_result_prints_every_end_to_end_metric(self):
        res, _, _ = m.result(capture(), 0, [], False)
        self.assertEqual(set(res["metrics"]), set(m.END_TO_END))
        for v in res["metrics"].values():
            self.assertEqual(set(v), {"value", "unit"})

    def test_workload_names_match_the_runner(self):
        import run
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))
        for _, workload in m.PAPER.values():
            self.assertIn(workload, run.WORKLOADS)


@unittest.skipUnless(os.path.exists(DRIVER), "driver not built yet")
class ConfigGuard(unittest.TestCase):
    def reject(self, *args):
        p = subprocess.run([DRIVER, "--workload", "paper-spec",
                            "--seconds", "0"] + list(args),
                           capture_output=True, text=True, timeout=60)
        self.assertEqual(p.returncode, 2)
        self.assertEqual(p.stdout, "")
        self.assertEqual(len(p.stderr.strip().splitlines()), 1)
        return p.stderr

    def test_barnes_below_four_procs_is_refused(self):
        self.assertIn("barnes", self.reject("--procs", "3"))

    def test_scale_three_is_refused(self):
        self.assertIn("scale", self.reject("--scale", "3"))


if __name__ == "__main__":
    unittest.main()
