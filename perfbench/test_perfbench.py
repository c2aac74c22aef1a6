"""Tests of the end-to-end benchmark: its statistics, its metric
declarations, its expected rows and its output checks.

    python3 -m unittest discover -s perfbench -v

The tests that run the driver build it first (as perfbench/run.py does),
which takes about a minute the first time, and then run every workload
briefly.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import metrics  # noqa: E402
import run  # noqa: E402


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_rows():
    rows = {}
    with open(run.EXPECTED) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                cell, *fields = line.rstrip("\n").split("\t")
                rows[cell] = fields
    return rows


class StatisticsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(metrics.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(metrics.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_tail_is_highest_percentile_with_ten_samples_beyond(self):
        cases = [  # sample count -> (percentile, nearest rank)
            (20, (50.0, 10)),
            (39, (50.0, 20)),
            (40, (75.0, 30)),
            (120, (90.0, 108)),
            (199, (90.0, 180)),
            (200, (95.0, 190)),
            (1000, (99.0, 990)),
            (10000, (99.9, 9990)),
        ]
        for n, (percentile, rank) in cases:
            values = [float(v) for v in range(n, 0, -1)]  # unsorted input
            value, got_percentile, samples = metrics.tail(values)
            self.assertEqual((got_percentile, samples), (percentile, n), n)
            self.assertEqual(value, float(rank), n)
            self.assertGreaterEqual(n - rank, metrics.TAIL_BEYOND, n)

    def test_tail_rule_holds_for_every_sample_count(self):
        ladder = metrics.TAIL_LADDER_PERMILLE
        for n in range(20, 3000):
            _, percentile, _ = metrics.tail(range(n))
            permille = round(percentile * 10)
            self.assertGreaterEqual(n - -(-permille * n // 1000), 10, n)
            higher = ladder[ladder.index(permille) + 1:]
            for step in higher:
                self.assertLess(n - -(-step * n // 1000), 10, n)

    def test_tail_needs_twenty_samples(self):
        with self.assertRaises(ValueError):
            metrics.tail(range(19))

    def test_cells_per_second_uses_median_pass(self):
        self.assertEqual(metrics.cells_per_second(24, [10.0, 8.0, 9.0]),
                         (24 / 9.0, 3))
        self.assertEqual(metrics.cells_per_second(3, [4.0, 5.0]), (3 / 4.5, 2))


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_declares_what_run_py_prints(self):
        bench = load_benchmark()
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]),
                         metrics.WORKLOADS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         metrics.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         metrics.PER_LAYER_UNITS)
        setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))

    def test_result_refuses_missing_or_undeclared_metrics(self):
        raw = {"workload": "small-ci", "seed": 1, "trace": 0,
               "cells_per_pass": 16, "peak_rss_mb": 19.0, "attempted": 1,
               "failed": 0, "setup_s": [0.1], "pass_s": [0.25],
               "open_s": [0.02], "warm_s": [0.003] * 10,
               "reset_s": [0.02] * 10, "reference_s": [0.0005]}
        result, detail = metrics.result(raw)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(result["metrics"]), set(metrics.END_TO_END_UNITS))
        self.assertEqual(detail["passes"], 1)
        # Times are stated at the reference speed.
        self.assertAlmostEqual(result["metrics"]["setup_s"]["value"], 0.2)
        self.assertAlmostEqual(result["metrics"]["open_s"]["value"], 0.04)
        self.assertAlmostEqual(result["metrics"]["cells_per_s"]["value"],
                               32.0)
        raw["trace"] = 1
        raw.update(layers={}, update_modes={"warm": 1, "reset": 1},
                   coverage={"covered_s": 1.0, "wall_s": 2.0},
                   untraced_pass_s=[0.2])
        with self.assertRaises(ValueError):
            metrics.result(raw)


class ExpectedRowsTest(unittest.TestCase):
    """The expected rows must agree with the figures EXPERIMENTS.md reports
    for the same cells. Entries EXPERIMENTS.md marks approximate ("~") are
    not compared."""

    @classmethod
    def setUpClass(cls):
        path = os.path.join(ROOT, "EXPERIMENTS.md")
        if not os.path.exists(path):
            raise unittest.SkipTest("no EXPERIMENTS.md")
        with open(path) as f:
            cls.text = f.read()
        cls.rows = load_rows()

    def section(self, title):
        start = self.text.index(title)
        return self.text[start:self.text.index("\n---", start)]

    def reach(self, cell):
        reached, concrete = map(int, self.rows[cell][0].split("/"))
        return reached, concrete

    def table(self, title):
        for line in self.section(title).splitlines():
            cols = [c.strip() for c in line.strip().strip("|").split("|")]
            if line.startswith("| ") and not line.startswith("| benchmark") \
                    and not cols[0].startswith("**"):
                yield cols

    def test_figure4_reachability(self):
        compared = 0
        for app, methods, doop, jackee in self.table("## Figure 4"):
            reached, concrete = self.reach(f"{app}/mod-2objH")
            self.assertEqual(concrete, int(methods), app)
            self.assertEqual(f"{100 * reached / concrete:.2f}", jackee, app)
            compared += 1
            if f"{app}/doop-ci" in self.rows:
                reached, concrete = self.reach(f"{app}/doop-ci")
                self.assertEqual(f"{100 * reached / concrete:.2f}", doop, app)
        self.assertEqual(compared, 8)
        desktop = re.search(r"Desktop reference \(plain `main`, ci\): "
                            r"\*\*([0-9.]+)%\*\*", self.text).group(1)
        reached, concrete = self.reach("dacapo-like/ci")
        self.assertEqual(f"{100 * reached / concrete:.1f}", desktop)

    def test_figure5_java_util_share(self):
        compared = 0
        for app, *shares in self.table("## Figure 5"):
            for kind, share in zip(("ci", "2objH", "mod-2objH"), shares):
                if share.startswith("~"):
                    continue
                total, java_util = map(int, self.rows[f"{app}/{kind}"][6:8])
                self.assertEqual(f"{100 * java_util / total:.1f}%", share,
                                 f"{app}/{kind}")
                compared += 1
        self.assertGreaterEqual(compared, 15)

    def test_table1_precision(self):
        compared = 0
        for app, kind, objs, app_objs, edges, poly, mayfail, _ in \
                self.table("## Table 1"):
            row = self.rows[f"{app}/{kind}"]
            self.assertEqual(f"{float(row[1]):.1f}", objs)
            self.assertEqual(f"{float(row[2]):.1f}", app_objs)
            self.assertEqual(row[3:6], [edges, poly, mayfail])
            compared += 1
        self.assertEqual(compared, 9)


class DriverTest(unittest.TestCase):
    """Runs the built driver."""

    @classmethod
    def setUpClass(cls):
        cls.driver = run.build()
        cls.env = {k: v for k, v in os.environ.items()
                   if not k.startswith("JACKEE_")}

    def test_self_check_counts_corrupted_row_and_mismatched_digest(self):
        proc = subprocess.run([self.driver, "--self-check", "--expected",
                               run.EXPECTED], env=self.env,
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("corrupted row 1 failed", proc.stdout)
        self.assertIn("mismatched digest 1 failed", proc.stdout)

    def test_refuses_jackee_environment(self):
        proc = subprocess.run(
            [self.driver, "--workload", "small-ci", "--seed", "1",
             "--seconds", "1", "--trace", "0", "--expected", run.EXPECTED],
            env={**self.env, "JACKEE_TRACE": "1"}, capture_output=True,
            text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertIn("JACKEE_TRACE", proc.stderr)

    def test_every_workload_prints_every_declared_metric(self):
        bench = load_benchmark()
        for workload in metrics.WORKLOADS:
            for trace, declared in ((0, bench["end_to_end"]),
                                    (1, bench["per_layer"])):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)],
                    env=self.env, stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL, text=True)
                self.assertEqual(proc.returncode, 0, workload)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(
                    {name: m["unit"] for name, m in result["metrics"].items()},
                    {m["name"]: m["unit"] for m in declared},
                    f"{workload} --trace {trace}")
                self.assertTrue(result["correct"], workload)
                self.assertEqual(result["failed"], 0, workload)
                self.assertGreater(result["attempted"], 0, workload)


if __name__ == "__main__":
    unittest.main()
