"""Tests of the benchmark's own arithmetic.  Run from the repository root:

    python3 -m unittest perfbench/test_bstats.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bstats  # noqa: E402


def span(sid, parent, ts, dur, name="layer.op", pid=1):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": pid, "tid": 1,
            "args": {"span_id": sid, "parent_id": parent}}


class Percentile(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = [10, 20, 30, 40, 50]
        self.assertEqual(bstats.percentile(xs, 0), 10)
        self.assertEqual(bstats.percentile(xs, 50), 30)
        self.assertEqual(bstats.percentile(xs, 100), 50)
        self.assertAlmostEqual(bstats.percentile(xs, 90), 46.0)
        self.assertAlmostEqual(bstats.percentile([1, 2, 3, 4], 50), 2.5)

    def test_order_does_not_matter(self):
        self.assertEqual(bstats.percentile([3, 1, 2], 50), 2)

    def test_single_value_and_empty(self):
        self.assertEqual(bstats.percentile([7.5], 90), 7.5)
        with self.assertRaises(ValueError):
            bstats.percentile([], 50)

    def test_median_matches_statistics(self):
        for xs in ([5, 1, 4], [2, 9, 4, 1], [0.3, 0.1, 0.2, 0.25, 0.9]):
            self.assertAlmostEqual(bstats.median(xs), statistics.median(xs))


class FailedShare(unittest.TestCase):
    def test_share(self):
        self.assertEqual(bstats.failed_share(200, 0), 0.0)
        self.assertEqual(bstats.failed_share(200, 50), 0.25)
        self.assertEqual(bstats.failed_share(3, 3), 1.0)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (10, 11), (10, -1)):
            with self.assertRaises(ValueError):
                bstats.failed_share(attempted, failed)


class SelfTime(unittest.TestCase):
    def test_leaf_keeps_its_duration(self):
        st = bstats.self_times([span(1, 0, 0, 10)])
        self.assertEqual(st[(1, 1)], 10)

    def test_children_are_subtracted(self):
        events = [span(1, 0, 0, 100), span(2, 1, 10, 20), span(3, 1, 50, 30)]
        st = bstats.self_times(events)
        self.assertEqual(st[(1, 1)], 50)
        self.assertEqual(st[(1, 2)], 20)

    def test_overlapping_children_count_once(self):
        # two connections' spans under one parent may overlap in time
        events = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 40)]
        self.assertEqual(bstats.self_times(events)[(1, 1)], 40)

    def test_child_is_clipped_to_parent(self):
        events = [span(1, 0, 0, 50), span(2, 1, 40, 30)]
        self.assertEqual(bstats.self_times(events)[(1, 1)], 40)

    def test_grandchildren_belong_to_the_child(self):
        events = [span(1, 0, 0, 100), span(2, 1, 0, 60), span(3, 2, 0, 60)]
        st = bstats.self_times(events)
        self.assertEqual(st[(1, 1)], 40)
        self.assertEqual(st[(1, 2)], 0)
        self.assertEqual(st[(1, 3)], 60)

    def test_pids_do_not_mix(self):
        events = [span(1, 0, 0, 100, pid=1), span(2, 1, 0, 100, pid=2)]
        self.assertEqual(bstats.self_times(events)[(1, 1)], 100)

    def test_by_layer(self):
        events = [span(1, 0, 0, 100, "workload.c100k"), span(2, 1, 0, 30, "netlist.parse"),
                  span(3, 1, 30, 20, "netlist.csr"), span(4, 1, 50, 40, "ssta.analyze")]
        by = bstats.self_time_by_layer(events)
        self.assertEqual(by, {"workload": 10, "netlist": 50, "ssta": 40})


if __name__ == "__main__":
    unittest.main()
