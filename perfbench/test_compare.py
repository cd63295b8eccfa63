"""Self-tests of compare.py's verdicts on synthetic run sets.

    cd perfbench && python3 -m unittest test_compare
"""
import json
import unittest

import compare

BENCH = {
    "workloads": [{"name": "w", "why": "synthetic"}],
    "end_to_end": [
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def run_text(lat, rate, simd="avx512", threads=4, failed=0, attempted=100):
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": {"lat": {"value": lat, "unit": "ms"},
                          "rate": {"value": rate, "unit": "1/s"}}}
    return ("workload: w seed: 1 seconds: 10 trace: 0\n"
            f"runtime: engine: simd={simd} (max avx512), threads={threads}, "
            "alignment=64B\n" + json.dumps(result) + "\n")


def runs(values, **kw):
    return [compare.parse_run(run_text(v, 1000.0 / v, **kw)) for v in values]


BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


def verdicts(parent, change):
    rows, _ = compare.compare(parent, change, BENCH)
    return {name: v for _, name, _, v, _ in rows}


class VerdictTest(unittest.TestCase):
    def test_same_commit_is_unchanged(self):
        shifted = BASE[3:] + BASE[:3]
        self.assertEqual(verdicts(runs(BASE), runs(shifted)),
                         {"lat": "unchanged", "rate": "unchanged"})

    def test_clear_win_is_improved(self):
        faster = [v * 0.8 for v in BASE]
        self.assertEqual(verdicts(runs(BASE), runs(faster)),
                         {"lat": "improved", "rate": "improved"})

    def test_small_win_within_parent_spread_is_not_improved(self):
        # Wins every pair, but by less than the parent's quartile range.
        nudged = [v - 0.01 for v in BASE]
        self.assertEqual(verdicts(runs(BASE), runs(nudged))["lat"],
                         "unchanged")

    def test_loss_beyond_bound_is_regressed(self):
        slower = [v * 1.3 for v in BASE]
        self.assertEqual(verdicts(runs(BASE), runs(slower)),
                         {"lat": "regressed", "rate": "regressed"})

    def test_loss_within_bound_is_unchanged(self):
        slower = [v * 1.05 for v in BASE]
        self.assertEqual(verdicts(runs(BASE), runs(slower))["lat"],
                         "unchanged")

    def test_wide_spread_is_unresolved(self):
        noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 8.0, 12.0, 10.0]
        self.assertEqual(verdicts(runs(BASE), runs(noisy))["lat"],
                         "unresolved")

    def test_failure_share_is_compared(self):
        _, failures = compare.compare(runs(BASE), runs(BASE, failed=1), BENCH)
        self.assertFalse(failures[0][3])
        _, failures = compare.compare(runs(BASE), runs(BASE), BENCH)
        self.assertTrue(failures[0][3])

    def test_different_simd_level_is_refused(self):
        with self.assertRaises(compare.Refused):
            compare.compare(runs(BASE), runs(BASE, simd="avx2"), BENCH)

    def test_different_thread_cap_is_refused(self):
        with self.assertRaises(compare.Refused):
            compare.compare(runs(BASE), runs(BASE, threads=2), BENCH)

    def test_traced_run_is_refused(self):
        text = run_text(10.0, 100.0).replace("trace: 0", "trace: 1")
        with self.assertRaises(compare.Refused):
            compare.parse_run(text)


if __name__ == "__main__":
    unittest.main()
