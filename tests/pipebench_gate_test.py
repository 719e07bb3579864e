#!/usr/bin/env python3
"""Pins the verdict of tools/pipebench_gate.py on synthetic run results."""

import importlib.util
import unittest
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "pipebench_gate",
    Path(__file__).resolve().parent.parent / "tools" / "pipebench_gate.py")
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)

BETTER = {"result_s": "lower", "events_per_s": "higher",
          "peak_heap_mb": "lower"}
BASE = {"result_s": 0.40, "events_per_s": 250000.0, "peak_heap_mb": 11.0}


def result(values, failed=0, attempted=20):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": ""}
                        for name, v in values.items()}}


def runs(head_values=None, head_failed=0, head_result=None):
    """Two workloads of gate.PAIRS pairs; base always measures BASE."""
    out = []
    for workload in ("batch_models", "stream_recount"):
        for pair in range(1, gate.PAIRS + 1):
            head = head_result if head_result is not None else result(
                head_values or BASE, failed=head_failed)
            out.append({"workload": workload, "pair": pair, "side": "base",
                        "result": result(BASE)})
            out.append({"workload": workload, "pair": pair, "side": "head",
                        "result": head})
    return out


def scaled(name, factor):
    values = dict(BASE)
    values[name] *= factor
    return values


class VerdictTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        self.assertEqual(gate.verdict(runs(), BETTER), [])

    def test_slower_result_fails(self):
        reasons = gate.verdict(runs(scaled("result_s", 1.12)), BETTER)
        self.assertEqual(len(reasons), 2)
        self.assertIn("result_s is +12.0% worse", reasons[0])

    def test_lower_throughput_fails_and_higher_passes(self):
        self.assertEqual(len(gate.verdict(
            runs(scaled("events_per_s", 0.88)), BETTER)), 2)
        self.assertEqual(gate.verdict(
            runs(scaled("events_per_s", 1.12)), BETTER), [])

    def test_change_within_threshold_passes(self):
        self.assertEqual(gate.verdict(
            runs(scaled("result_s", 1.0 + gate.THRESHOLD / 2)), BETTER), [])

    def test_median_pair_absorbs_one_outlier(self):
        noisy = runs()
        noisy[1]["result"] = result(scaled("result_s", 1.5))
        self.assertEqual(gate.verdict(noisy, BETTER), [])

    def test_higher_failed_share_fails(self):
        reasons = gate.verdict(runs(head_failed=1), BETTER)
        self.assertEqual(len(reasons), 2)
        self.assertIn("head failed 5.0% of its ops, base 0.0%", reasons[0])

    def test_run_without_result_line_fails(self):
        broken = runs()
        broken[0]["result"] = None
        reasons = gate.verdict(broken, BETTER)
        self.assertEqual(reasons, ["batch_models: base run of pair 1 "
                                   "printed no result line"])

    def test_result_missing_a_gated_metric_fails(self):
        partial = {k: v for k, v in BASE.items() if k != "peak_heap_mb"}
        self.assertEqual(len(gate.verdict(runs(partial), BETTER)), 2 * 3)

    def test_reserved_seed_is_never_drawn(self):
        class Reserved:
            draws = [gate.RESERVED_SEED, 5]

            def randrange(self, _lo, _hi):
                return self.draws.pop(0)

        self.assertEqual(gate.fresh_seed(Reserved()), 5)

    def test_pairs_alternate_which_side_runs_first(self):
        self.assertEqual(gate.run_order(1), ("base", "head"))
        self.assertEqual(gate.run_order(2), ("head", "base"))


if __name__ == "__main__":
    unittest.main()
