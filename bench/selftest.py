"""Self-test of the benchmark's own arithmetic.

    python3 bench/selftest.py

Run from the repository root; the digest test imports the package from
`src/`.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from run import nearest_rank  # noqa: E402
from spans import layer_metrics, self_times, union_length  # noqa: E402
from worker import canonical, check, digest, run_passes, short  # noqa: E402


def span(name, start, end, parent, info=None):
    return [name, start, end, parent, 0, info]


class SelfTime(unittest.TestCase):
    # cli.main [0, 10]
    #   cli.compute_payload [1, 6]
    #     knotpipeline.knot_quiver [2, 4]
    #     quiverstate.export [3.5, 5]   (overlaps its sibling)
    #   qseries.normalize [7, 8]
    TREE = [span("cli.main", 0.0, 10.0, -1),
            span("cli.compute_payload", 1.0, 6.0, 0),
            span("knotpipeline.knot_quiver", 2.0, 4.0, 1, {"n": 7}),
            span("quiverstate.export", 3.5, 5.0, 1),
            span("qseries.normalize", 7.0, 8.0, 0, {"terms": 3})]

    def test_union_counts_overlap_once(self):
        self.assertEqual(union_length([(2, 4), (3.5, 5), (9, 9.5)]), 3.5)
        self.assertEqual(union_length([]), 0.0)

    def test_self_time_subtracts_covered_child_time(self):
        self.assertEqual(self_times(self.TREE), [4.0, 2.0, 2.0, 1.5, 1.0])

    def test_layer_metrics_of_tree(self):
        m = layer_metrics(self.TREE)
        self.assertEqual(m["cli.request_self_s"], 4.0)
        self.assertEqual(m["cli.payload_self_s"], 2.0)
        self.assertEqual(m["knotpipeline.knot_quiver_s"], 2.0)
        self.assertEqual(m["knotpipeline.vertices"], 7)
        self.assertEqual(m["quiverstate.export_s"], 1.5)
        self.assertEqual(m["qseries.normalize_calls"], 1)
        self.assertEqual(m["qseries.terms_out"], 3)
        self.assertEqual(m["verify.dim_vectors_per_s"], 0.0)


class Percentile(unittest.TestCase):
    def test_p90_of_100_items_leaves_ten_beyond(self):
        values = list(range(100, 0, -1))
        p90 = nearest_rank(values, 90)
        self.assertEqual(p90, 90)
        self.assertEqual(sum(v > p90 for v in values), 10)
        self.assertEqual(nearest_rank(values, 50), 50)

    def test_small_samples(self):
        self.assertEqual(nearest_rank([5.0], 90), 5.0)
        self.assertEqual(nearest_rank([1, 2], 50), 1)


class OutputCheck(unittest.TestCase):
    REQUESTS = [["oracle", s, "--colors", "0..1"]
                for s in ("3/1", "5/2", "4/1")]

    def test_corrupted_digest_counts_as_failed(self):
        from quivertangle import cli
        good = run_passes(cli.main, self.REQUESTS, None, 0, 0.0)
        self.assertEqual(good["failed"], [])
        expected = [short(good["digests"][i])
                    for i in range(len(self.REQUESTS))]
        expected[1] = "0" * 16
        served = run_passes(cli.main, self.REQUESTS, expected, 0, 0.0)
        self.assertEqual(served["failed"], [1])
        self.assertEqual(len(served["failed"]) / len(self.REQUESTS), 1 / 3)

    def test_verify_output_drops_timing_and_needs_ok(self):
        report = {"slope": "3/1", "ok": True, "timing": 0.25}
        self.assertEqual(canonical(["verify"], json.dumps(report) + "\n"),
                         '{"slope": "3/1", "ok": true}\n')
        bad = json.dumps(dict(report, ok=False)) + "\n"
        self.assertEqual(check(["verify"], 0, bad, None), (False, None))
        self.assertEqual(check(["compute"], 1, "{}\n", None), (False, None))
        self.assertEqual(check(["compute"], 0, "{}\n", None),
                         (True, digest("{}\n")))


if __name__ == "__main__":
    unittest.main()
