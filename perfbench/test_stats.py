"""Tests of the benchmark's own statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import statistics
import unittest

import stats


def span(sid, parent, start, end, name="s", tid=1):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "name": name, "tid": tid}


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4, 5], 50.0), 3)
        self.assertAlmostEqual(stats.percentile([1, 2, 3, 4], 50.0), 2.5)
        self.assertAlmostEqual(stats.percentile(list(range(101)), 99.0), 99.0)
        self.assertEqual(stats.percentile([7], 99.0), 7.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50.0)

    def test_p99_needs_ten_samples_beyond_it(self):
        # 1000 samples put 10 beyond the p99 rank, 900 only 9.
        self.assertEqual(stats.samples_beyond(1000, 99.0), 10)
        self.assertTrue(stats.supported(1000, 99.0))
        self.assertEqual(stats.samples_beyond(900, 99.0), 9)
        self.assertFalse(stats.supported(900, 99.0))

    def test_highest_supported_percentile(self):
        self.assertIsNone(stats.highest_supported_percentile(15))
        self.assertEqual(stats.highest_supported_percentile(21), 50.0)
        self.assertEqual(stats.highest_supported_percentile(101), 90.0)
        self.assertEqual(stats.highest_supported_percentile(999), 99.0)
        self.assertEqual(stats.highest_supported_percentile(10001), 99.9)

    def test_the_supported_tail_keeps_ten_samples_beyond(self):
        for n in (20, 150, 1000, 20000):
            values = list(range(n))
            p = stats.highest_supported_percentile(n)
            cut = stats.percentile(values, p)
            self.assertGreaterEqual(sum(v > cut for v in values), 10, n)

    def test_summarize_reports_count_and_support(self):
        s = stats.summarize([float(i) for i in range(500)])
        self.assertEqual(s["n"], 500)
        self.assertFalse(s["p99_supported"])
        self.assertEqual(s["tail_p"], 90.0)
        self.assertEqual(stats.summarize([]), {"n": 0})


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([span(1, 0, 0, 10)]), {1: 10})

    def test_nested_children_count_only_at_their_own_level(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 60),
                 span(3, 2, 20, 40), span(4, 1, 70, 80)]
        self.assertEqual(stats.self_times(spans),
                         {1: 100 - 50 - 10, 2: 50 - 20, 3: 20, 4: 10})

    def test_overlapping_children_count_once(self):
        # Two children on other threads overlap in [30, 50].
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 30, 70)]
        self.assertEqual(stats.self_times(spans)[1], 100 - 60)

    def test_child_outside_its_parent_is_clipped(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 90, 130)]
        self.assertEqual(stats.self_times(spans)[1], 90)

    def test_contained_and_identical_children(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 90), span(3, 1, 20, 30),
                 span(4, 1, 10, 90)]
        self.assertEqual(stats.self_times(spans)[1], 20)

    def test_parents_inferred_by_containment_per_thread(self):
        spans = [span(1, None, 0, 100, tid=1), span(2, None, 10, 20, tid=1),
                 span(3, None, 15, 18, tid=1), span(4, None, 30, 40, tid=1),
                 span(5, None, 12, 14, tid=2)]
        stats.infer_parents(spans)
        self.assertEqual([s["parent"] for s in spans], [0, 1, 2, 1, 0])

    def test_layer_table(self):
        spans = [span(1, 0, 0, 10, "req"), span(2, 1, 2, 5, "call"),
                 span(3, 0, 20, 40, "req"), span(4, 3, 22, 30, "call")]
        table = stats.layer_table(spans)
        self.assertEqual(table["req"], {"n": 2, "p50": 15, "self_p50": 9.5})
        self.assertEqual(table["call"]["self_p50"], 5.5)


class HistogramTest(unittest.TestCase):
    TEXT = ("# TYPE seer_net_request_us histogram\n"
            'seer_net_request_us_bucket{le="10"} 5\n'
            'seer_net_request_us_bucket{le="20"} 15\n'
            'seer_net_request_us_bucket{le="+Inf"} 16\n'
            'other_bucket{le="10"} 99\n')

    def test_parses_cumulative_buckets_of_one_histogram(self):
        self.assertEqual(stats.prom_buckets(self.TEXT, "seer_net_request_us"),
                         {10.0: 5, 20.0: 15, math.inf: 16})

    def test_percentile_of_the_delta_between_snapshots(self):
        before = [{10.0: 4, math.inf: 4}]
        after = [stats.prom_buckets(self.TEXT, "seer_net_request_us")]
        # Between the snapshots: 1 sample <= 10, 10 in (10, 20], 1 above.
        p50 = stats.histogram_percentile(before, after, 50.0)
        self.assertTrue(10.0 < p50 < 20.0)
        self.assertIsNone(stats.histogram_percentile(after, after, 50.0))

    def test_snapshots_of_several_processes_add_up(self):
        a = {10.0: 10, math.inf: 10}
        b = {20.0: 10, math.inf: 10}
        p = stats.histogram_percentile([{}, {}], [a, b], 25.0)
        self.assertLessEqual(p, 10.0)
        p = stats.histogram_percentile([{}, {}], [a, b], 75.0)
        self.assertTrue(10.0 < p <= 20.0)


class OutcomeTest(unittest.TestCase):
    def test_clean_run_is_correct(self):
        self.assertEqual(stats.outcome(10, 10, 0, 0),
                         {"attempted": 10, "succeeded": 10, "failed": 0,
                          "wrong": 0, "correct": True})

    def test_wrong_answer_counts_as_failed_and_incorrect(self):
        r = stats.outcome(10, 9, 1, 1)
        self.assertEqual(r["failed"], 1)
        self.assertFalse(r["correct"])

    def test_refused_request_fails_without_being_wrong(self):
        r = stats.outcome(10, 8, 2, 0)
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 2)

    def test_inconsistent_counts_are_rejected(self):
        for args in ((10, 9, 0, 0), (10, 10, 0, 1), (0, 0, 0, 0),
                     (5, 6, -1, 0)):
            with self.assertRaises(ValueError):
                stats.outcome(*args)

    def test_stat_lines(self):
        self.assertEqual(stats.stat_lines("stat requests 12\nstat hit_rate "
                                          "0.5000\nnoise\n"),
                         {"requests": 12.0, "hit_rate": 0.5})


if __name__ == "__main__":
    unittest.main()
