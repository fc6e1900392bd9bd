"""Tests of the trace reducer and the outcome digest on a hand-built trace.

    python3 -m unittest discover -s e2e_bench/tests

fixture_trace.json holds two rounds in the simulator's Chrome-trace layout.
Round 1 (µs): stage_server_round [1052, 1102] contains pipeline_select
[1054, 1072], under which shard0 (15) and shard1 (7) run in parallel, and
pipeline_aggregate [1072, 1092], which nests pipeline_robust_aggregate (10);
stage_probe [1102, 1132] contains its own pipeline_select (19); nothing is
spanned between 1132 and stage_apply at 1133. Round 2 has stages only plus a
timeline instant, which the reducer must ignore.
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
import trace_reduce as tr  # noqa: E402

FIXTURE = os.path.join(os.path.dirname(__file__), "fixture_trace.json")


class ReduceTest(unittest.TestCase):
    def setUp(self):
        self.rounds = tr.load_rounds(FIXTURE)
        self.r1 = tr.reduce_round(self.rounds[1])
        self.r2 = tr.reduce_round(self.rounds[2])

    def test_groups_complete_events_by_round(self):
        self.assertEqual(sorted(self.rounds), [1, 2])
        self.assertEqual(len(self.rounds[1]), 14)
        self.assertEqual(len(self.rounds[2]), 8)  # the instant event is dropped

    def test_nested_self_time(self):
        nested = self.r1["nested_self_us"]
        self.assertAlmostEqual(nested[("round", "pipeline_aggregate")], 10.0)
        self.assertAlmostEqual(nested[("round", "pipeline_robust_aggregate")], 10.0)
        self.assertAlmostEqual(self.r1["stage_self_us"]["stage_server_round"], 12.0)
        self.assertAlmostEqual(self.r1["stage_incl_us"]["stage_server_round"], 50.0)

    def test_probe_and_round_pipeline_kept_apart(self):
        nested = self.r1["nested_self_us"]
        self.assertAlmostEqual(nested[("round", "pipeline_select")], 18.0)
        self.assertAlmostEqual(nested[("probe", "pipeline_select")], 19.0)
        self.assertAlmostEqual(self.r1["stage_self_us"]["stage_probe"], 11.0)
        self.assertAlmostEqual(self.r1["stage_incl_us"]["stage_probe"], 30.0)

    def test_shards_are_busy_time_not_wall(self):
        self.assertAlmostEqual(self.r1["shard_busy_us"], 22.0)
        self.assertAlmostEqual(self.r1["shard_max_us"] / self.r1["shard_mean_us"], 15.0 / 11.0)
        # The shard spans did not reduce pipeline_select's self time.
        self.assertAlmostEqual(self.r1["nested_self_us"][("round", "pipeline_select")], 18.0)

    def test_shares_sum_to_wall(self):
        self.assertAlmostEqual(self.r1["wall_us"], 153.0)
        self.assertAlmostEqual(self.r1["unspanned_us"], 1.0)
        self.assertAlmostEqual(tr.share_sum_pct(self.r1), 100.0)
        self.assertAlmostEqual(self.r2["wall_us"], 32.0)
        self.assertAlmostEqual(self.r2["unspanned_us"], 0.0)
        self.assertAlmostEqual(tr.share_sum_pct(self.r2), 100.0)
        self.assertEqual(self.r2["nested_self_us"], {})

    def test_round_without_stages_is_rejected(self):
        with self.assertRaises(ValueError):
            tr.reduce_round([("pipeline_select", 0.0, 1.0)])

    def test_tail_percentile_leaves_ten_rounds_beyond(self):
        self.assertEqual(tr.tail_percentile(60), 75.0)
        self.assertEqual(tr.tail_percentile(100), 90.0)
        self.assertEqual(tr.tail_percentile(15), 50.0)
        self.assertEqual(tr.percentile([4, 1, 3, 2], 50), 2)
        self.assertEqual(tr.percentile([4, 1, 3, 2], 75), 3)


class DigestTest(unittest.TestCase):
    REP = {"k_used": [27189, 108, 27189], "train_loss_bits": [4616189618054758400] * 3,
           "global_loss_bits": [9221120237041090560, 9221120237041090560, 4616189618054758400],
           "client_uplink_bits": [4636737291354636288, 0]}

    def test_fnv1a64_reference_vectors(self):
        self.assertEqual(tr.fnv1a64(b""), 0xCBF29CE484222325)
        self.assertEqual(tr.fnv1a64(b"a"), 0xAF63DC4C8601EC8C)
        self.assertEqual(tr.fnv1a64(b"foobar"), 0x85944171F73967E8)

    def test_equal_outcomes_digest_equal(self):
        self.assertEqual(tr.outcome_digest(self.REP), tr.outcome_digest(copy.deepcopy(self.REP)))

    def test_every_field_and_order_counts(self):
        base = tr.outcome_digest(self.REP)
        for key in ("k_used", "train_loss_bits", "global_loss_bits", "client_uplink_bits"):
            changed = copy.deepcopy(self.REP)
            changed[key][-1] ^= 1
            self.assertNotEqual(tr.outcome_digest(changed), base, key)
        swapped = copy.deepcopy(self.REP)
        swapped["k_used"][0], swapped["k_used"][1] = swapped["k_used"][1], swapped["k_used"][0]
        self.assertNotEqual(tr.outcome_digest(swapped), base)


if __name__ == "__main__":
    unittest.main()
