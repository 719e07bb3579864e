#!/usr/bin/env python3
"""Pins the verdict of tools/pipebench_gate.py on synthetic run results."""

import importlib.util
import json
import unittest
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "pipebench_gate", _ROOT / "tools" / "pipebench_gate.py")
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)

# BENCHMARK.json's end-to-end block, as the gate reads it.
END_TO_END = [
    {"name": "result_s", "better": "lower", "bound": 0.15},
    {"name": "events_per_s", "better": "higher", "bound": 0.15},
    {"name": "ingest_p50_ms", "better": "lower", "bound": 0.2},
    {"name": "ingest_tail_ms", "better": "lower", "bound": 0.2},
    {"name": "restore_s", "better": "lower", "bound": 0.2},
    {"name": "peak_heap_mb", "better": "lower", "bound": 0.15},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]
GATES = gate.gates(END_TO_END)
BASE = {"result_s": 0.40, "events_per_s": 250000.0, "ingest_p50_ms": 2.0,
        "ingest_tail_ms": 9.0, "restore_s": 0.03, "peak_heap_mb": 11.0,
        "setup_s": 1.5}


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
        self.assertEqual(gate.verdict(runs(), GATES), [])

    def test_slower_result_fails(self):
        reasons = gate.verdict(runs(scaled("result_s", 1.12)), GATES)
        self.assertEqual(len(reasons), 2)
        self.assertIn("result_s is +12.0% worse", reasons[0])

    def test_lower_throughput_fails_and_higher_passes(self):
        self.assertEqual(len(gate.verdict(
            runs(scaled("events_per_s", 0.88)), GATES)), 2)
        self.assertEqual(gate.verdict(
            runs(scaled("events_per_s", 1.12)), GATES), [])

    def test_change_within_threshold_passes(self):
        self.assertEqual(gate.verdict(
            runs(scaled("result_s", 1.0 + gate.THRESHOLD / 2)), GATES), [])

    def test_median_pair_absorbs_one_outlier(self):
        noisy = runs()
        noisy[1]["result"] = result(scaled("result_s", 1.5))
        self.assertEqual(gate.verdict(noisy, GATES), [])

    def test_higher_failed_share_fails(self):
        reasons = gate.verdict(runs(head_failed=1), GATES)
        self.assertEqual(len(reasons), 2)
        self.assertIn("head failed 5.0% of its ops, base 0.0%", reasons[0])

    def test_run_without_result_line_fails(self):
        broken = runs()
        broken[0]["result"] = None
        reasons = gate.verdict(broken, GATES)
        self.assertEqual(reasons, ["batch_models: base run of pair 1 "
                                   "printed no result line"])

    def test_result_missing_a_gated_metric_fails(self):
        for missing in ("peak_heap_mb", "restore_s"):
            partial = {k: v for k, v in BASE.items() if k != missing}
            self.assertEqual(len(gate.verdict(runs(partial), GATES)),
                             2 * gate.PAIRS)

    def test_declared_bounds_gate_the_other_metrics(self):
        for name, bound in (("ingest_p50_ms", 0.2), ("ingest_tail_ms", 0.2),
                            ("restore_s", 0.2), ("setup_s", 0.25)):
            self.assertEqual(gate.verdict(
                runs(scaled(name, 1.0 + bound - 0.03)), GATES), [], name)
            reasons = gate.verdict(runs(scaled(name, 1.0 + bound + 0.03)),
                                   GATES)
            self.assertEqual(len(reasons), 2, name)
            self.assertIn(f"{name} is +{bound + 0.03:.1%} worse", reasons[0])
            self.assertIn(f"(threshold {bound:.0%})", reasons[0])

    def test_tight_metrics_keep_the_gate_threshold(self):
        for name, factor in (("result_s", 1.08), ("events_per_s", 0.92),
                             ("peak_heap_mb", 1.08)):
            self.assertEqual(
                len(gate.verdict(runs(scaled(name, factor)), GATES)), 2)

    def test_every_declared_metric_is_gated(self):
        declared = json.loads((_ROOT / "BENCHMARK.json").read_text())
        gated = gate.gates(declared["end_to_end"])
        self.assertEqual(sorted(gated), sorted(
            m["name"] for m in declared["end_to_end"]))
        for name in gate.TIGHT:
            self.assertEqual(gated[name][1], gate.THRESHOLD)


    def test_reserved_seed_is_never_drawn(self):
        class Reserved:
            draws = [gate.RESERVED_SEED, 5]

            def randrange(self, _lo, _hi):
                return self.draws.pop(0)

        self.assertEqual(gate.fresh_seed(Reserved()), 5)

    def test_pairs_alternate_which_side_runs_first(self):
        self.assertEqual(gate.run_order(1), ("base", "head"))
        self.assertEqual(gate.run_order(2), ("head", "base"))

    def test_each_side_runs_first_in_half_the_pairs(self):
        firsts = [gate.run_order(pair)[0]
                  for pair in range(1, gate.PAIRS + 1)]
        self.assertEqual(firsts.count("base"), firsts.count("head"))

    def test_first_run_bias_cancels_in_the_median(self):
        # A host on which the first run of a pair reads faster: head reads
        # +8% in the pairs base runs first and -2% in the others.
        biased = runs()
        for run in biased:
            if run["side"] == "head":
                first = gate.run_order(run["pair"])[0]
                run["result"] = result(scaled(
                    "result_s", 1.08 if first == "base" else 0.98))
        self.assertEqual(gate.verdict(biased, GATES), [])


if __name__ == "__main__":
    unittest.main()
