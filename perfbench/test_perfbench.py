"""Self-tests of the benchmark.

Run from the root of the repository with either of

    python3 -m pytest perfbench -q
    python3 -m unittest discover -s perfbench -p "test_*.py"

They run the benchmark on tiny inputs (``--smoke``) and plant wrong answers
to show that the checks count them as failures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import synchrokit as sk  # noqa: E402
from synchrokit import core, sync  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402
from worker import MIN_PASSES, check_output, measure  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((HERE / "design.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class SmokeTest(unittest.TestCase):
    """Every named metric is printed, with its unit, on tiny inputs."""

    def check_output_lines(self, workload: str, trace: int, wanted: list[dict]) -> dict:
        proc = bench("--workload", workload, "--smoke", "--seconds", "0.2",
                     "--seed", "5", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            reported = result["metrics"][metric["name"]]
            self.assertEqual(reported["unit"], metric["unit"], metric["name"])
            printed = [line.split() for line in lines[:-1]]
            self.assertTrue(
                any(words[:1] == [metric["name"]] and metric["unit"] in words for words in printed),
                f"{metric['name']} is not printed with its unit",
            )
        return result

    def test_end_to_end_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_output_lines(workload, 0, BENCHMARK["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_per_layer_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_output_lines(workload, 1, BENCHMARK["per_layer"])
                for layer in DESIGN["workloads"][workload]["spans_with_calls"]:
                    self.assertGreater(result["metrics"][f"{layer}.calls"]["value"], 0, layer)
                self.assertIn("trace.overhead_ratio", result["metrics"])

    def test_workload_names_match(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))
        self.assertEqual(sorted(workloads.BUILDERS), sorted(run.WORKLOADS))

    def test_refuses_without_sources(self):
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "census", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class PlantedFailureTest(unittest.TestCase):
    """Wrong answers are counted as failed items."""

    def setUp(self):
        self.rec = Recorder(False)

    def test_off_by_one_threshold(self):
        d = sk.cerny(5)
        item = workloads.exact_item("planted/cerny(5)", d, 16, pinned=False)
        rt, word = sync.reset_threshold_exact(d)
        self.assertIsNone(check_output(item, (rt, word), self.rec, {}, {}))
        self.assertIn("reset threshold 17", check_output(item, (rt + 1, word), self.rec, {}, {}))
        planted = workloads.Item(item.label, lambda call, outputs: (rt + 1, word), item.check)
        result = measure([planted], 0, self.rec, {})
        self.assertEqual(len(result["calls"]), MIN_PASSES)
        self.assertTrue(all(call[3] is not None for call in result["calls"]))

    def test_non_resetting_word(self):
        d = sk.v(6)
        item = workloads.word_item("planted/pairchase(v(6))", "sync.pairchase_reset_word",
                                   sync.pairchase_reset_word, (d,), d, 15, None)
        good = sync.pairchase_reset_word(d)
        short = core.Word(good.word.letters[:-1])
        bad = sync.ResetResult(short, len(short), good.method, True)
        self.assertIn("does not reset", check_output(item, bad, self.rec, {}, {}))

    def test_changed_witness_digest(self):
        d = sk.cerny(6)
        label = "exact/cerny(6)"
        item = workloads.exact_item(label, d, 25, pinned=True)
        out = sync.reset_threshold_exact(d)
        expected = json.loads((HERE / "expected.json").read_text())["digests"]
        self.assertIsNone(check_output(item, out, self.rec, {}, expected))
        changed = dict(expected, **{label: "0" * 16})
        self.assertIn("differs from the stored", check_output(item, out, self.rec, {}, changed))

    def test_nondeterministic_output(self):
        d = sk.cerny(4)
        rt, word = sync.reset_threshold_exact(d)
        outputs = iter([(rt, word), (rt, word), (rt, core.Word(word.letters + (0,)))])
        item = workloads.exact_item("planted/drift", d, None, pinned=False)
        item = workloads.Item(item.label, lambda call, _: next(outputs), item.check)
        result = measure([item], 0, self.rec, {})
        self.assertEqual([call[3] for call in result["calls"][:2]], [None, None])
        self.assertIn("differs from the first output", result["calls"][2][3])

    def test_tail_keeps_ten_samples_beyond(self):
        value, percentile, beyond = run.tail([float(i) for i in range(26)])
        self.assertEqual((value, beyond), (15.0, 10))
        self.assertAlmostEqual(percentile, 100 * 16 / 26)


if __name__ == "__main__":
    unittest.main()
