"""Self-test of the benchmark at smoke size.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of the repository (it builds the harness on first use,
like run.py). Checks that every metric BENCHMARK.json names is emitted with
its unit in both modes on every workload, that the correctness check
rejects a perturbed fingerprint and a failed live round, and that
layers.json says for every per-layer metric what it should move.
"""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    """Runs run.py at smoke size; returns (exit code, stdout lines, result)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1",
         *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.splitlines()
    return done.returncode, lines, json.loads(lines[-1]) if lines else None


class SpecTest(unittest.TestCase):
    def test_layers_json_covers_every_per_layer_metric(self):
        layers = json.loads((HERE / "layers.json").read_text())
        self.assertEqual(sorted(layers),
                         sorted(m["name"] for m in SPEC["per_layer"]))
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        for name, claim in layers.items():
            for metric, workloads in claim["moves"].items():
                self.assertIn(metric, e2e, name)
                self.assertTrue(set(workloads) <= set(WORKLOADS), name)
            self.assertTrue(set(claim["flat_on"]) <= set(WORKLOADS), name)

    def test_run_py_knows_every_workload(self):
        self.assertEqual(sorted(WORKLOADS), sorted(run.WORKLOADS))


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, listed):
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in listed))
        for m in listed:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, listed in ((0, SPEC["end_to_end"]),
                                  (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, lines, result = bench("--workload", workload,
                                                "--trace", str(trace))
                    self.assertEqual(code, 0, "\n".join(lines))
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.check_metrics(result, listed)
                    text = "\n".join(lines)
                    self.assertIn("facts: ", text)
                    self.assertIn("failed_share = 0 ", text)
                    for m in SPEC["end_to_end"]:
                        self.assertIn(f"{m['name']} = ", text)

    def test_perturbed_fingerprint_is_rejected(self):
        code, lines, result = bench("--workload", "fig06-hprof",
                                    "--perturb-fingerprint")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any(line.startswith("CHECK FAILED") and
                            "cross-executor" in line for line in lines))


class CheckTest(unittest.TestCase):
    """run.check on hand-made harness output."""

    FP = {"events": 10, "windows": 2, "modeled_T_s": 0.5, "edge_cut": 3}

    def args(self, workload, smoke=True):
        return SimpleNamespace(workload=workload, smoke=smoke,
                               perturb_fingerprint=False)

    def test_matching_fingerprints_pass(self):
        raw = {"iterations": [
            {"seed": 1, "fingerprint": self.FP,
             "reference_fingerprint": dict(self.FP)},
            {"seed": 1, "fingerprint": dict(self.FP),
             "reference_fingerprint": None}]}
        self.assertEqual(run.check(self.args("fig06-hprof"), raw), (2, 0, []))

    def test_traced_run_must_match_untraced_run(self):
        raw = {"iterations": [
            {"seed": 1, "fingerprint": self.FP, "reference_fingerprint": None},
            {"seed": 1, "fingerprint": dict(self.FP, windows=3),
             "reference_fingerprint": None}]}
        attempted, failed, problems = run.check(self.args("fig06-hprof"), raw)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("windows", problems[0])

    def test_pinned_reference_mismatch_is_rejected(self):
        raw = {"iterations": [{"seed": 7, "fingerprint": self.FP,
                               "reference_fingerprint": dict(self.FP)}]}
        with tempfile.TemporaryDirectory() as tmp:
            table = Path(tmp) / "reference.json"
            table.write_text(json.dumps(
                {"fig06-hprof": {"7": dict(self.FP, edge_cut=4)}}))
            with mock.patch.object(run, "REFERENCE", table):
                attempted, failed, problems = run.check(
                    self.args("fig06-hprof", smoke=False), raw)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertIn("pinned reference in edge_cut", problems[0])

    def test_failed_live_round_is_rejected(self):
        raw = {"iterations": [{"rounds_attempted": 5, "rounds_failed": 1,
                               "violations": 0}]}
        attempted, failed, problems = run.check(self.args("online-live"), raw)
        self.assertEqual((attempted, failed), (5, 1))
        self.assertTrue(problems)

    def test_time_travelling_delivery_is_rejected(self):
        raw = {"iterations": [{"rounds_attempted": 5, "rounds_failed": 0,
                               "violations": 1}]}
        self.assertEqual(run.check(self.args("online-live"), raw)[1], 1)


if __name__ == "__main__":
    unittest.main()
