#!/usr/bin/env python3
"""Checks of run.py's median-over-processes on hand-computed inputs.

    python3 perfbench/test_run.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def result(correct, attempted, failed, **metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": "ms"}
                        for k, v in metrics.items()}}


class Combine(unittest.TestCase):
    def test_odd_count_takes_the_middle_value(self):
        got = run.combine([result(True, 10, 0, p50_ms=3.0),
                           result(True, 20, 0, p50_ms=1.0),
                           result(True, 30, 0, p50_ms=2.0),
                           result(True, 40, 0, p50_ms=90.0),
                           result(True, 50, 0, p50_ms=2.5)])
        self.assertEqual(got["metrics"]["p50_ms"], {"value": 2.5,
                                                    "unit": "ms"})
        self.assertEqual(got["attempted"], 150)

    def test_even_count_takes_the_midpoint(self):
        got = run.combine([result(True, 1, 0, a=1.0), result(True, 1, 0, a=4.0),
                           result(True, 1, 0, a=2.0), result(True, 1, 0, a=3.0)])
        self.assertEqual(got["metrics"]["a"]["value"], 2.5)

    def test_one_incorrect_process_makes_the_run_incorrect(self):
        got = run.combine([result(True, 5, 0, a=1.0),
                           result(False, 5, 2, a=1.0)])
        self.assertFalse(got["correct"])
        self.assertEqual(got["failed"], 2)
        self.assertEqual(got["attempted"], 10)


if __name__ == "__main__":
    unittest.main()
