"""Tests of the benchmark aggregator in run.py.

    python3 -m unittest discover benchmark
"""

import json
import unittest

import run


def call(attempts=10, delivered=8, dead=2, name="tree"):
    return {"name": name, "attempts": attempts, "delivered": delivered,
            "hop_sum": 40,
            "failures": {"dead_entry": dead, "hop_limit": 0,
                         "holder_departed": 0, "succ_collapse": 0,
                         "cache_dead_owner": 0}}


def rep(*calls):
    return {"calls": list(calls)}


class StatisticsTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        self.assertEqual(run.quartiles([5, 1, 4, 2, 3]), (1.5, 3, 4.5))
        self.assertEqual(run.quartiles([2.0]), (2.0, 2.0, 2.0))

    def test_summary_reports_median_quartiles_and_n(self):
        self.assertEqual(run.summary([1, 2, 3, 4, 5]),
                         {"median": 3, "q1": 1.5, "q3": 4.5, "n": 5})

    def test_spread_is_the_quartile_distance_over_the_median(self):
        self.assertAlmostEqual(run.spread([1, 2, 3, 4, 5]), 1.0)
        self.assertEqual(run.spread([7, 7, 7]), 0.0)


def sample(wall_s, reference_s):
    return {"wall_s": wall_s, "reference_s": reference_s}


def timed_pass(*samples, traced=False):
    return {"traced": traced, "samples": list(samples)}


class HostSpeedTest(unittest.TestCase):
    def test_a_time_is_scaled_by_the_reference_beside_it(self):
        self.assertAlmostEqual(run.scaled(sample(3.0, 0.04), 0.02), 1.5)
        self.assertAlmostEqual(run.scaled(sample(3.0, 0.01), 0.02), 6.0)

    def test_a_pass_sums_its_calls_each_scaled_by_its_own_reference(self):
        p = timed_pass(sample(1.0, 0.02), sample(1.0, 0.04))
        self.assertAlmostEqual(run.pass_time(p, 0.02), 1.5)

    def test_end_to_end_pools_passes_and_setups_of_good_reps(self):
        good = {"ok": True, "routes": 100, "peak_rss_mib": 10.0,
                "setups": [sample(0.4, 0.04), sample(0.5, 0.05)],
                "passes": [timed_pass(sample(2.0, 0.02)),
                           timed_pass(sample(1.0, 0.02), sample(2.0, 0.04)),
                           timed_pass(sample(9.0, 0.02), traced=True)]}
        bad = {**good, "ok": False,
               "passes": [timed_pass(sample(50.0, 0.02))]}
        stats = run.end_to_end([good, good, bad], 0.02)
        self.assertEqual(stats["run_s"]["n"], 4)
        self.assertAlmostEqual(stats["run_s"]["median"], 2.0)
        self.assertAlmostEqual(stats["routes_per_s"]["median"], 50.0)
        self.assertAlmostEqual(stats["setup_s"]["median"], 0.2)
        self.assertEqual(stats["setup_s"]["n"], 4)
        self.assertEqual(set(stats), set(run.END_TO_END))

    def test_per_layer_scales_times_but_not_counts(self):
        layer = {"sim.route_ns_per_route.tree": {"value": 300.0, "unit": "ns"},
                 "sim.mean_hops.tree": {"value": 9.5, "unit": "hops"}}
        rep = {"ok": True, "layers": [layer, layer],
               "passes": [timed_pass(sample(1.0, 0.04)),
                          timed_pass(sample(1.1, 0.04), traced=True),
                          timed_pass(sample(1.0, 0.04)),
                          timed_pass(sample(1.1, 0.04), traced=True)]}
        layers = run.per_layer({"static_dense": rep}, 0.02)
        self.assertAlmostEqual(layers["sim.route_ns_per_route.tree"][0], 150.0)
        self.assertEqual(layers["sim.mean_hops.tree"], (9.5, "hops"))
        self.assertAlmostEqual(layers["trace.overhead.static_dense"][0], 1.1)


class BoundCheckTest(unittest.TestCase):
    tight = [10.0, 10.1, 9.9, 10.0, 10.05]
    wide = [8.0, 12.0, 10.0, 9.0, 11.0]

    def test_within_bound_is_ok(self):
        self.assertEqual(run.verdict(self.tight, [10.5], 0.1, "lower"), "ok")

    def test_worse_than_bound_regresses(self):
        self.assertEqual(run.verdict(self.tight, [12.0], 0.1, "lower"),
                         "regressed")

    def test_direction_follows_better(self):
        self.assertEqual(run.verdict(self.tight, [8.5], 0.1, "higher"),
                         "regressed")
        self.assertEqual(run.verdict(self.tight, [12.0], 0.1, "higher"), "ok")

    def test_spread_wider_than_bound_is_unresolved(self):
        self.assertGreater(run.spread(self.wide), 0.1)
        self.assertEqual(run.verdict(self.wide, [10.5], 0.1, "lower"),
                         "unresolved")

    def test_unresolved_unless_every_new_run_is_better(self):
        self.assertEqual(run.verdict(self.wide, [7.0, 7.5], 0.1, "lower"), "ok")


class JudgeTest(unittest.TestCase):
    def test_matching_reps_pass(self):
        reps = [rep(call()), rep(call())]
        self.assertEqual(run.judge(reps, [call()]), 0)
        self.assertTrue(all(r["ok"] for r in reps))

    def test_golden_mismatch_counts_as_failed_op(self):
        reps = [rep(call(delivered=7, dead=3)) for _ in range(3)]
        self.assertEqual(run.judge(reps, [call()]), 3)
        self.assertIn("counters differ from golden.json", reps[0]["problems"])

    def test_conservation_law_is_checked(self):
        reps = [rep(call(attempts=11))]
        self.assertEqual(run.judge(reps, None), 1)

    def test_reps_must_agree_without_golden(self):
        reps = [rep(call()), rep(call()), rep(call(delivered=7, dead=3))]
        self.assertEqual(run.judge(reps, None), 1)
        self.assertFalse(reps[2]["ok"])

    def test_short_warmup_is_a_failed_op(self):
        reps = [{**rep(call()), "warmup_s": 0.61},
                {**rep(call()), "warmup_s": 0.31}]
        self.assertEqual(run.judge(reps, [call()]), 1)
        self.assertTrue(reps[0]["ok"])
        self.assertIn("warm-up took 0.310 s", reps[1]["problems"][0])

    def test_process_failure_is_a_failed_op(self):
        reps = [rep(call()), {"error": "exit 2", "calls": None}]
        self.assertEqual(run.judge(reps, None), 1)

    def test_calls_without_routes_skip_conservation(self):
        probe = {"name": "membership", "population": 5, "joins": 2}
        self.assertEqual(run.judge([rep(probe)], [probe]), 0)


class MetricNameTest(unittest.TestCase):
    def test_every_declared_metric_name_matches_the_pattern(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")

    def test_end_to_end_metrics_match_the_declaration(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)

    def test_bad_names_are_rejected(self):
        for bad in ("run s", "run_s\n", "", "lat(ms)"):
            with self.assertRaises(ValueError):
                run.format_metric(bad, 1.0, "s")


class UnitPrintingTest(unittest.TestCase):
    def test_value_is_followed_by_its_unit(self):
        line = run.format_metric("routes_per_s", 67920.7196, "routes/s")
        self.assertRegex(line, r"^routes_per_s\s+67920.7 routes/s$")

    def test_quartiles_and_n_are_printed(self):
        stats = run.summary([1.0, 2.0, 3.0])
        line = run.format_metric("run_s", stats["median"], "s", stats)
        self.assertIn(" 2 s", line)
        self.assertIn("(q1 1, q3 3, n 3)", line)


if __name__ == "__main__":
    unittest.main()
