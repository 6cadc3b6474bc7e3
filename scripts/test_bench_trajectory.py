"""Tests of scripts/bench_trajectory.py on a two-snapshot fixture.

Run: python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import bench_trajectory  # noqa: E402


def summary(parent, change):
    return {"better": "lower",
            "parent": {"median": parent, "q1": parent, "q3": parent, "n": 10},
            "change": {"median": change, "q1": change, "q3": change, "n": 10},
            "change_vs_parent": change / parent - 1.0,
            "change_wins_pairs": "10/10"}


def per_layer(values, runs=3):
    return {name: {f"median_of_{runs}": value, "unit": "ns"}
            for name, value in values.items()}


def quartiles(values, runs=10):
    """Per-layer records from {name: (q1, median, q3)}."""
    return {name: {f"median_of_{runs}": median, "q1": q1, "q3": q3,
                   "unit": "ns"}
            for name, (q1, median, q3) in values.items()}


FIXTURE = {
    "BENCH_pr12.json": {
        "end_to_end": {"churn_sync": {"summary": {
            "run_s": summary(0.5, 0.4)}}},
        "per_layer": {"parent": per_layer({"churn.route_ns": 90.0}),
                      "change": per_layer({"churn.route_ns": 80.0})},
    },
    "BENCH_pr13.json": {
        "end_to_end": {
            "churn_sync": {"summary": {"run_s": summary(0.4, 0.2),
                                       "peak_rss_mib": summary(100.0, 82.0)}},
            "static_dense": {"summary": {"run_s": summary(0.3, 0.3)}},
        },
        "per_layer": {"parent": per_layer({"churn.route_ns": 80.0}, 10),
                      "change": per_layer({"churn.route_ns": 70.0,
                                           "sim.build_ms": 5.0}, 10)},
    },
}


class BenchTrajectoryTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.paths = []
        for name, snapshot in FIXTURE.items():
            path = pathlib.Path(self.dir.name) / name
            path.write_text(json.dumps(snapshot), encoding="utf-8")
            self.paths.append(str(path))

    def tearDown(self):
        self.dir.cleanup()

    def test_rows_follow_each_metric_across_snapshots(self):
        labels, rows = bench_trajectory.trajectory(self.paths)
        self.assertEqual(labels, ["pr12", "pr13"])
        self.assertEqual([name for name, _ in rows], [
            "churn_sync.peak_rss_mib", "churn_sync.run_s",
            "static_dense.run_s", "churn.route_ns", "sim.build_ms"])
        cells = dict(rows)
        self.assertEqual(cells["churn_sync.peak_rss_mib"][0], None)
        self.assertAlmostEqual(cells["churn_sync.peak_rss_mib"][1][1], -0.18)
        self.assertEqual(bench_trajectory.format_cell(
            cells["churn_sync.run_s"][1]), "0.2 (-50.0%)")
        self.assertEqual(bench_trajectory.format_cell(
            cells["churn.route_ns"][0]), "80")
        self.assertEqual(bench_trajectory.format_cell(
            cells["churn.route_ns"][1]), "70")
        self.assertEqual(bench_trajectory.format_cell(
            cells["sim.build_ms"][0]), "-")

    def test_legacy_snapshot_is_skipped(self):
        legacy = pathlib.Path(self.dir.name) / "BENCH_pr9.json"
        legacy.write_text(json.dumps({"bench": "x", "rows": []}),
                          encoding="utf-8")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            labels, _ = bench_trajectory.trajectory(
                [str(legacy)] + self.paths)
        self.assertEqual(labels, ["pr12", "pr13"])
        self.assertIn("BENCH_pr9.json", err.getvalue())

    def test_main_prints_one_line_per_metric(self):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            self.assertEqual(bench_trajectory.main(self.paths), 0)
        lines = out.getvalue().splitlines()
        self.assertEqual(len(lines), 1 + 5)
        self.assertTrue(lines[0].startswith("metric"))
        self.assertIn("82 (-18.0%)", lines[1])



RISES_SNAPSHOT = {"per_layer": {
    "parent": quartiles({
        "sim.route_ns_per_route.tree": (190.0, 200.0, 210.0),
        "sim.route_ns_per_route.ring": (190.0, 200.0, 210.0),
        "sim.build_ms.xor": (100.0, 110.0, 130.0),
        "sparse.build_ns_per_node.ring": (50.0, 50.0, 50.0),
        "sim.mean_hops.tree": (5.0, 5.0, 5.0),
        "churn.route_ns_per_route.sync": (10.0, 10.0, 10.0),
    }),
    "change": quartiles({
        # 200 + IQR 20 = 220: 221 rises, 220 does not.
        "sim.route_ns_per_route.tree": (0.0, 221.0, 0.0),
        "sim.route_ns_per_route.ring": (0.0, 220.0, 0.0),
        "sim.build_ms.xor": (0.0, 141.0, 0.0),
        # A zero parent IQR: any rise counts.
        "sparse.build_ns_per_node.ring": (0.0, 50.5, 0.0),
        # Not a timing layer.
        "sim.mean_hops.tree": (0.0, 9.0, 0.0),
        # Absent from the parent side.
        "sim.route_ns_per_route.xor": (0.0, 900.0, 0.0),
        "churn.route_ns_per_route.sync": (0.0, 9.0, 0.0),
    }),
}}


class RisesTest(unittest.TestCase):
    def test_only_timing_layers_beyond_the_parent_iqr(self):
        found = bench_trajectory.rises(RISES_SNAPSHOT)
        self.assertEqual([r["metric"] for r in found], [
            "sim.build_ms.xor", "sim.route_ns_per_route.tree",
            "sparse.build_ns_per_node.ring"])
        self.assertEqual(found[1], {
            "metric": "sim.route_ns_per_route.tree", "parent_median": 200.0,
            "change_median": 221.0, "parent_iqr": 20.0})

    def test_main_prints_the_rises_and_exits_1(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "BENCH_pr99.json"
            path.write_text(json.dumps(RISES_SNAPSHOT), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()) as out:
                self.assertEqual(
                    bench_trajectory.main(["--rises", str(path)]), 1)
            self.assertEqual(json.loads(out.getvalue()),
                             bench_trajectory.rises(RISES_SNAPSHOT))

    def test_main_exits_0_without_rises(self):
        calm = json.loads(json.dumps(RISES_SNAPSHOT))
        calm["per_layer"]["change"] = calm["per_layer"]["parent"]
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "BENCH_pr99.json"
            path.write_text(json.dumps(calm), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()) as out:
                self.assertEqual(
                    bench_trajectory.main(["--rises", str(path)]), 0)
            self.assertEqual(out.getvalue().strip(), "[]")


if __name__ == "__main__":
    unittest.main()
