#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny knobs.

  python3 perfbench/test_bench.py

Each workload must run and print every metric name it owns, untraced and
traced; a corrupted expected digest and a tampered cache-hit payload must
each surface as failed operations; counts above nproc are refused; the
trace folder must attribute child time.  The first test builds spgbench
like any run (see run.py).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import fold  # noqa: E402
import run  # noqa: E402

TINY_GRID = ["--seconds", "1", "--apps", "1", "--apps150", "1", "--step", "20",
             "--step150", "30"]
TINY_SERVE = ["--seconds", "1", "--cold", "16", "--hot", "48"]

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def bench(*args):
    """Run run.py; returns (exit code, result line or None, stdout)."""
    p = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), *args],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return p.returncode, result, p.stdout


def results_doc(workload, seed, trace):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(run.ROOT, ".bench_build"))
    path = os.path.join(target, "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        return json.load(f)


class Workloads(unittest.TestCase):
    def check_names(self, workload, extra):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, out = bench("--workload", workload, "--trace", str(trace),
                                      *extra)
            self.assertEqual(code, 0, out)
            self.assertTrue(result["correct"], out)
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            names = {m["name"] for m in BENCH[section]}
            self.assertEqual(set(result["metrics"]), names)
            for m in BENCH[section]:
                self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            if section == "end_to_end":
                for name, v in result["metrics"].items():
                    self.assertGreater(v["value"], 0, name)

    def test_paper_grid(self):
        self.check_names("paper_grid", TINY_GRID)

    def test_paper_campaign(self):
        self.check_names("paper_campaign", TINY_GRID)

    def test_serve_replay(self):
        self.check_names("serve_replay", TINY_SERVE)


class Checks(unittest.TestCase):
    def test_corrupted_digest_fails_its_instances(self):
        code, result, out = bench("--workload", "paper_grid", "--seed", "7",
                                  *TINY_GRID)
        self.assertEqual(code, 0, out)
        self.assertIn("digest check skipped", out)
        doc = results_doc("paper_grid", 7, 0)
        digests = dict(doc["digests"])
        good = digests["fig10_random_n50_4x4"]
        digests["fig10_random_n50_4x4"] = good[::-1] if good[::-1] != good else "0" * 16
        knobs = run.knob_key(dict(doc["knobs"]))
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump({"knobs": {knobs: digests}}, f)
        try:
            code, result, out = bench("--workload", "paper_grid", "--seed", "7",
                                      "--digests", f.name, *TINY_GRID)
        finally:
            os.unlink(f.name)
        self.assertEqual(code, 1, out)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("fig10_random_n50_4x4", out)

    def test_tampered_hit_is_a_failed_request(self):
        code, result, out = bench("--workload", "serve_replay", "--tamper-hit", "5",
                                  *TINY_SERVE)
        self.assertEqual(code, 1, out)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("report differs from its cold miss", out)

    def test_counts_above_nproc_are_refused(self):
        code, result, _ = bench("--workload", "serve_replay", "--clients",
                                str((os.cpu_count() or 1) + 1), *TINY_SERVE)
        self.assertEqual(code, 2)
        self.assertIsNone(result)


class Fold(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        trace = {"traceEvents": [
            {"name": "outer", "ph": "B", "tid": 1, "ts": 0},
            {"name": "solve", "ph": "X", "tid": 1, "ts": 10, "dur": 30,
             "args": {"solver": "DPA1D"}},
            {"name": "inner", "ph": "X", "tid": 1, "ts": 15, "dur": 10},
            {"name": "solve", "ph": "X", "tid": 2, "ts": 5, "dur": 50,
             "args": {"solver": "Greedy"}},
            {"name": "outer", "ph": "E", "tid": 1, "ts": 100},
        ]}
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump(trace, f)
        try:
            table = fold.fold(fold.load_spans(f.name))
        finally:
            os.unlink(f.name)
        spans = table["spans"]
        self.assertEqual(spans["outer"]["total_us"], 100)
        self.assertEqual(spans["outer"]["self_us"], 70)
        self.assertEqual(spans["solve"]["count"], 2)
        self.assertEqual(spans["solve"]["self_us"], 20 + 50)
        self.assertEqual(table["solvers"]["DPA1D"]["total_us"], 30)
        self.assertAlmostEqual(sum(r["share"] for r in spans.values()), 1.0)

    def test_fixed_significant_digits_never_use_exponents(self):
        self.assertEqual(fold.fmt(300000.0), "300000")
        self.assertEqual(fold.fmt(0.000123456), "0.0001235")
        self.assertEqual(fold.fmt(12.3456), "12.35")


if __name__ == "__main__":
    unittest.main(verbosity=2)
