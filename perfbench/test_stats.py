"""Tests of the benchmark's statistics code (stats.py).

    python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 0), 1)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 100), 4)
        self.assertAlmostEqual(stats.percentile(list(range(101)), 99), 99.0)

    def test_empty_has_no_percentile(self):
        self.assertIsNone(stats.percentile([], 50))


class TailRuleTest(unittest.TestCase):
    def test_reports_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(100000), 99.99)

    def test_support_counts_samples_beyond(self):
        self.assertTrue(stats.has_support(100, 90))   # 10 beyond
        self.assertFalse(stats.has_support(99, 90))   # 9.9 beyond
        self.assertTrue(stats.has_support(1000, 99))


class SelfTimeTest(unittest.TestCase):
    # [id, parent, group, name, start, dur]
    SPANS = [
        [1, 0, 1, "engine.run_embedding", 0.0, 10.0],
        [2, 1, 1, "sparse.spmm", None, 3.0],
        [3, 2, 1, "numa.plan_build", None, 0.5],
        [4, 1, 1, "sparse.spmm", None, 2.0],
        [5, 0, 5, "graph.rmat", 11.0, 1.5],
    ]

    def test_subtracts_direct_children_only(self):
        own = stats.self_times(self.SPANS)
        self.assertAlmostEqual(own[1], 5.0)  # 10 - 3 - 2
        self.assertAlmostEqual(own[2], 2.5)  # 3 - 0.5
        self.assertAlmostEqual(own[3], 0.5)
        self.assertAlmostEqual(own[5], 1.5)

    def test_self_times_of_a_group_sum_to_its_root(self):
        by_layer = stats.self_time_by_layer(self.SPANS, group=1)
        self.assertEqual(set(by_layer), {"engine", "sparse", "numa"})
        self.assertAlmostEqual(sum(by_layer.values()), 10.0)
        self.assertAlmostEqual(by_layer["sparse"], 4.5)

    def test_by_name_and_layer_of(self):
        self.assertEqual(stats.layer_of("serve.refresh_rows"), "serve")
        by_name = stats.self_time_by_name(self.SPANS)
        self.assertAlmostEqual(by_name["sparse.spmm"], 4.5)
        self.assertAlmostEqual(by_name["graph.rmat"], 1.5)


class FailureCountTest(unittest.TestCase):
    def test_counts_op_failures_and_failed_checks(self):
        checks = {"a": {"checked": 10, "failed": 2},
                  "b": {"checked": 5, "failed": 0}}
        self.assertEqual(stats.failure_count(3, checks), 5)
        self.assertEqual(stats.failure_count(0, {}), 0)

    def test_ratio_over_attempted(self):
        self.assertEqual(stats.failed_ratio(100, 0), 0.0)
        self.assertEqual(stats.failed_ratio(100, 5), 0.05)
        self.assertEqual(stats.failed_ratio(4, 9), 1.0)
        self.assertEqual(stats.failed_ratio(0, 0), 1.0)


class BacklogTest(unittest.TestCase):
    def test_steady_and_stalled_backlogs_are_not_growing(self):
        self.assertFalse(stats.backlog_growing([2.0, 2.1, 1.9, 2.0]))
        self.assertFalse(stats.backlog_growing([2.0, 40.0, 2.0, 2.0]))

    def test_rising_backlog_is_growing(self):
        self.assertTrue(stats.backlog_growing([5.0, 60.0, 200.0, 600.0]))
        self.assertFalse(stats.backlog_growing([5.0, 8.0, 12.0, 20.0]))


if __name__ == "__main__":
    unittest.main()
