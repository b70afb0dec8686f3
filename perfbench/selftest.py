"""Self-tests of the benchmark: its oracles and its failure accounting.

usage: python3 perfbench/selftest.py    (from the root of a checkout)

Each oracle must accept the program's real output and reject tampered
copies of it; the harness must count a crash, an unexpected exit code, a
timeout, a wrong output and a hash-seed-dependent output as failed
operations without hanging.  These tests start only short-lived children.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run
from workloads import WORKLOADS, Workload, lags

ROOT = run.ROOT
sys.path.insert(0, str(ROOT / "src"))

REFUTE_H6 = """\
refines: NO
counterexample (output-not-included)
  note: divergence first possible in interval 5
  inputs:
    In [a.1] [a.1] [] [] [] []
    Key [] [] [] [] [a] []
  output:
    Data [] [] [] [] [] [0]
"""

_RULES_H5 = ("add-component", "add-component", "add-output", "add-output", "add-input",
             "add-input", "refine-behavior", "refine-behavior", "add-input")
REJECT_H5 = "".join(
    "step %d (line %d): %s ok\n" % (i, i + 5, rule) for i, rule in enumerate(_RULES_H5, 1)
) + """\
step 10 (line 15): refine-invariant FAILED
  refine-invariant RDB (under R-lags-I)
    [pass] invariant-channels: support I, R is visible in the system
    [pass] invariant-env-compatible: every one of 32768 environments extends to a satisfying history
    [FAIL] invariant-valid: some admissible run violates the invariant
      counterexample (invariant-violated)
        note: R-lags-I fails on a run prefix of length 5
        run:
          D [] [] [a.1] [a.2] []
          Data [] [] [] [] []
          I [] [a.1] [a.0] [] []
          In [a.1] [a.0] [] [] []
          Key [] [] [] [] []
          R [] [] [] [a.1] [a.2]
script: FAILED
"""


def refine_h4_outputs(final: str):
    steps = "".join("step %d (line %d): rule ok\n  details\n" % (i, i) for i in range(1, 14))
    return ((0, steps + "script: ok\n\n" + final), (0, "refines: yes\n"))


class OracleTests(unittest.TestCase):
    def check(self, name, outputs):
        return WORKLOADS[name].check(ROOT, outputs)

    def test_refine_h4(self):
        final = (ROOT / "cases/final.arch").read_text(encoding="utf-8")
        self.assertEqual(self.check("refine-h4", refine_h4_outputs(final)), [])
        tampered = final.replace("PRE2", "PRE3", 1)
        self.assertTrue(self.check("refine-h4", refine_h4_outputs(tampered)))
        self.assertTrue(self.check("refine-h4", refine_h4_outputs(final + "\n")))
        applied, _ = refine_h4_outputs(final)
        self.assertTrue(self.check("refine-h4", (applied, (0, "refines: NO\n"))))
        failed_step = (0, applied[1].replace("rule ok", "rule FAILED", 1))
        self.assertTrue(self.check("refine-h4", (failed_step, (0, "refines: yes\n"))))

    def test_refute_h6(self):
        self.assertEqual(self.check("refute-h6", ((1, REFUTE_H6),)), [])
        for old, new in (
            ("refines: NO", "refines: yes"),         # wrong verdict
            ("Data [] [] [] [] [] [0]", "Data [] [] [] [] [] [1]"),
            ("Data [] [] [] [] [] [0]", "Data [] [] [] [] [] []"),
            ("Key [] [] [] [] [a] []", "Key [] [] [] [] [] []"),
            ("In [a.1] [a.1]", "In [a.9] [a.1]"),  # out of the alphabet
            ("interval 5", "interval 4"),
        ):
            with self.subTest(tamper=new):
                self.assertTrue(self.check("refute-h6", ((1, REFUTE_H6.replace(old, new)),)))
        self.assertTrue(self.check("refute-h6", ((1, "refines: NO\n"),)))

    def test_reject_h5(self):
        self.assertEqual(self.check("reject-h5", ((1, REJECT_H5),)), [])
        for old, new in (
            ("R [] [] [] [a.1] [a.2]", "R [] [] [] [a.1] [a.0]"),  # now lags I
            ("step 10 (line 15)", "step 11 (line 15)"),
            ("[FAIL] invariant-valid", "[FAIL] invariant-env-compatible"),
            ("script: FAILED", "script: ok"),
        ):
            with self.subTest(tamper=new):
                self.assertTrue(self.check("reject-h5", ((1, REJECT_H5.replace(old, new)),)))

    def test_lags(self):
        self.assertTrue(lags(((), ("a",), ("b",)), ((), (), ("a",))))
        self.assertFalse(lags(((), ("a",), ("b",)), ((), ("b",), ())))


class HarnessTests(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=run.OUT)
        self.tmp = Path(self._tmp.name)
        self.workload = WORKLOADS["refute-h6"]

    def tearDown(self):
        self._tmp.cleanup()

    def fake(self, code: str, timeout_s=30.0, mode="op", seed=1):
        report = self.tmp / ("child-%d-%s.json" % (seed, mode))
        argv = [sys.executable, "-c", code, str(report)]
        return run.run_child(self.workload, mode, seed, timeout_s, self.tmp, argv=argv)

    def report(self, outputs):
        return ("import json, sys, time\n"
                "t = time.monotonic()\n"
                "json.dump({'setup_end': t, 'verdict_end': t, 'outputs': %r},"
                " open(sys.argv[1], 'w'))\n" % (outputs,))

    def test_crash_is_failed(self):
        child = self.fake("raise RuntimeError('boom')")
        self.assertIn("exited with 1", child.error)
        self.assertIn("boom", child.error)

    def test_missing_report_is_failed(self):
        self.assertIn("no report", self.fake("pass").error)

    def test_unexpected_exit_code_is_failed(self):
        child = self.fake(self.report([[0, REFUTE_H6]]))
        self.assertIn("exit codes [0], expected [1]", child.error)

    def test_timeout_is_failed_and_killed(self):
        start = time.monotonic()
        child = self.fake("import time; time.sleep(60)", timeout_s=1.0)
        self.assertIn("timed out", child.error)
        self.assertLess(time.monotonic() - start, 10)

    def test_wrong_and_nondeterministic_outputs_are_failed(self):
        good = self.fake(self.report([[1, REFUTE_H6]]), seed=1)
        other = REFUTE_H6.replace("counterexample (output-not-included)",
                                  "counterexample (output-not-included) ")
        differs = self.fake(self.report([[1, other]]), seed=2)
        wrong = self.fake(self.report([[1, REFUTE_H6.replace("[0]", "[1]")]]), seed=3)
        run.verify(self.workload, [good, differs, wrong])
        self.assertIsNone(good.error)
        self.assertIn("stdout differs between PYTHONHASHSEED=1 and 2", differs.error)
        self.assertIn("abstract system admits", wrong.error)

    def test_oracle_crash_is_failed(self):
        def broken(root, outputs):
            raise ValueError("bad oracle")

        child = self.fake(self.report([[1, REFUTE_H6]]))
        run.verify(Workload("x", "", self.workload.commands, broken), [child])
        self.assertIn("oracle raised", child.error)

    def test_real_setup_child(self):
        child = run.run_child(self.workload, "setup", 0, 60.0, self.tmp)
        self.assertIsNone(child.error)
        self.assertGreater(child.setup_s, 0)


class ScaleTests(unittest.TestCase):
    def test_scale_uses_the_samples_inside_the_interval(self):
        ref = run.REF_TASK_S
        samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref), (3.0, ref)]
        self.assertAlmostEqual(run.scale(4.0, samples, 0.5, 2.5), 2.0)
        self.assertAlmostEqual(run.scale(4.0, samples, 0.0, 3.0), 4.0 / 1.5)
        self.assertAlmostEqual(run.scale(4.0, samples, 3.2, 3.3), 4.0 / 1.5)

    def test_reference_task_is_fixed_work(self):
        self.assertEqual(run.reference_task(), run.reference_task())


class DeclarationTests(unittest.TestCase):
    def test_benchmark_json_matches_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
