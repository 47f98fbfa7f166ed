"""Self-tests of the benchmark itself.

The fig14 tests run at the small 0.005 budget; the one-command test runs
every workload for one second (serve-mixed keeps going until it has its
minimum number of replies).  Run from the root of a checkout (about a
minute and a half)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, use_program  # noqa: E402

use_program()

from fig14 import PINS_PATH, WARM_BUDGET, run_cold  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from run import END_TO_END, WORKLOADS, result_document  # noqa: E402
from tracer import Tracer, assert_pristine  # noqa: E402


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_declares_what_the_code_prints(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["end_to_end"]],
            END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["per_layer"]],
            PER_LAYER)
        self.assertLessEqual({w["name"] for w in declared["workloads"]},
                             set(WORKLOADS))


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = Tracer()

        def leaf():
            return sum(range(20_000))

        traced_leaf = tracer.span("leaf", leaf)
        outer = tracer.span("outer", lambda: [traced_leaf() for _ in range(5)])
        outer()
        totals = tracer.totals()
        calls, inclusive, own = totals["outer"]
        self.assertEqual(calls, 1)
        self.assertEqual(totals["leaf"][0], 5)
        self.assertAlmostEqual(own + totals["leaf"][1], inclusive, places=9)

    def test_pristine_check_sees_installed_wrappers(self):
        assert_pristine()
        tracer = Tracer()
        tracer.install()
        try:
            with self.assertRaises(AssertionError):
                assert_pristine()
        finally:
            tracer.restore()
        assert_pristine()


class WorkloadTest(unittest.TestCase):
    def test_tampered_pin_counts_as_failure(self):
        pins = json.loads(PINS_PATH.read_text())
        digests = pins["budgets"][repr(WARM_BUDGET)]["0"]["digests"]
        cell = next(iter(digests))
        digests[cell] = "0" * 16
        with tempfile.TemporaryDirectory() as scratch:
            tampered = Path(scratch) / "pins.json"
            tampered.write_text(json.dumps(pins))
            outcome = run_cold(0, 0, False, budget=WARM_BUDGET,
                               pins_path=tampered)
        self.assertEqual(outcome.failed, 1, outcome.failures)
        self.assertIn(cell, outcome.failures[0])
        document = result_document(outcome, traced=False)
        self.assertFalse(document["correct"])
        self.assertLess(document["metrics"]["ok_fraction"]["value"], 1.0)

    def test_traced_layer_sum_holds(self):
        outcome = run_cold(0, 0, True, budget=WARM_BUDGET)
        self.assertEqual(outcome.failures, [])
        m = outcome.metrics
        hooks = sum(value for name, value in m.items()
                    if name.startswith("prefetchers.")
                    and name.endswith(".hooks_s"))
        accounted = (m["sim.self_s"] + m["memory.demand_access_s"]
                     + m["memory.prefetch_fill_s"] + m["trace.columns_s"]
                     + hooks)
        self.assertGreater(m["sim.run_s"], 0.0)
        self.assertAlmostEqual(accounted, m["sim.run_s"], places=6)
        self.assertEqual(m["sim.run_calls"], 210)
        self.assertTrue(outcome.spans)
        document = result_document(outcome, traced=True)
        self.assertEqual([(name, entry["unit"]) for name, entry
                          in document["metrics"].items()], PER_LAYER)
        assert_pristine()


class CommandTest(unittest.TestCase):
    def test_one_command_runs_every_workload(self):
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "all",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        self.assertEqual(completed.returncode, 0, completed.stderr)
        lines = completed.stdout.strip().splitlines()
        final = json.loads(lines[-1])
        self.assertTrue(final["correct"], final)
        self.assertEqual(set(final), {"correct", "attempted", "failed",
                                      "metrics"})
        for workload in WORKLOADS:
            for name, unit in END_TO_END:
                entry = final["metrics"][f"{workload}.{name}"]
                self.assertEqual(entry["unit"], unit)
                self.assertGreater(entry["value"], 0.0, (workload, name))
        report = "\n".join(lines[:-1])
        for name, unit in END_TO_END:
            self.assertRegex(report, rf"(?m)^{name}\s+\S+ {unit}$")


if __name__ == "__main__":
    unittest.main()
