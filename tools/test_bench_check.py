#!/usr/bin/env python3
"""Unit tests for the bench_check.py regression gate.

The gate's status-tuple logic (ok / FAIL / skip) decides whether CI merges
a PR, so it gets the same treatment as any other tier-1 code: resolve()
path walking, every check kind, the --allow-missing downgrade rules, and
main()'s exit codes for missing artifacts and malformed baselines.

Run directly (python3 tools/test_bench_check.py) or via ctest.
"""

import importlib.util
import json
import pathlib
import sys
import tempfile
import unittest
from unittest import mock

_HERE = pathlib.Path(__file__).resolve().parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_check", _HERE / "bench_check.py")
bench_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_check)


class ResolveTest(unittest.TestCase):
    DOC = {"a": {"b": 3.5}, "rows": [{"x": 1}, {"x": 2}], "n": 7}

    def test_walks_nested_dicts(self):
        self.assertEqual(bench_check.resolve(self.DOC, "a.b"), 3.5)

    def test_numeric_parts_index_arrays(self):
        self.assertEqual(bench_check.resolve(self.DOC, "rows.1.x"), 2)

    def test_top_level_key(self):
        self.assertEqual(bench_check.resolve(self.DOC, "n"), 7)

    def test_missing_key_raises(self):
        with self.assertRaises(KeyError):
            bench_check.resolve(self.DOC, "a.nope")

    def test_bad_index_raises(self):
        with self.assertRaises(IndexError):
            bench_check.resolve(self.DOC, "rows.9.x")

    def test_non_numeric_index_raises(self):
        with self.assertRaises(ValueError):
            bench_check.resolve(self.DOC, "rows.x")

    def test_walking_into_scalar_raises(self):
        with self.assertRaises(KeyError):
            bench_check.resolve(self.DOC, "n.deeper")


class RunCheckTest(unittest.TestCase):
    DOC = {"overhead_pct": {"e2e": 2.5}, "budget": 3.0, "rows": [1, 2, 3]}

    def check(self, **kwargs):
        return bench_check.run_check(self.DOC, kwargs)

    def test_max_within_bound_is_ok(self):
        status, _ = self.check(path="overhead_pct.e2e", max=3.0)
        self.assertEqual(status, "ok")

    def test_max_bound_is_inclusive(self):
        status, _ = self.check(path="overhead_pct.e2e", max=2.5)
        self.assertEqual(status, "ok")

    def test_regression_past_max_fails(self):
        status, message = self.check(path="overhead_pct.e2e", max=2.0)
        self.assertEqual(status, "FAIL")
        self.assertIn("<= 2", message)

    def test_min_bound(self):
        self.assertEqual(self.check(path="budget", min=3.0)[0], "ok")
        self.assertEqual(self.check(path="budget", min=3.1)[0], "FAIL")

    def test_min_and_max_band(self):
        status, _ = self.check(path="budget", min=2.0, max=4.0)
        self.assertEqual(status, "ok")
        status, _ = self.check(path="budget", min=3.5, max=4.0)
        self.assertEqual(status, "FAIL")

    def test_equals_exact_by_default(self):
        self.assertEqual(self.check(path="budget", equals=3.0)[0], "ok")
        self.assertEqual(self.check(path="budget", equals=3.01)[0], "FAIL")

    def test_equals_with_tolerance(self):
        status, _ = self.check(path="budget", equals=3.01, tol=0.05)
        self.assertEqual(status, "ok")
        status, _ = self.check(path="budget", equals=3.2, tol=0.05)
        self.assertEqual(status, "FAIL")

    def test_len_check(self):
        self.assertEqual(self.check(path="rows", len=3)[0], "ok")
        self.assertEqual(self.check(path="rows", len=4)[0], "FAIL")

    def test_missing_path_fails_by_default(self):
        status, message = self.check(path="overhead_pct.nope", max=3.0)
        self.assertEqual(status, "FAIL")
        self.assertIn("missing", message)

    def test_missing_path_skips_with_allow_missing(self):
        status, message = bench_check.run_check(
            self.DOC, {"path": "overhead_pct.nope", "max": 3.0},
            allow_missing=True)
        self.assertEqual(status, "skip")
        self.assertIn("allowed", message)

    def test_non_numeric_value_fails_even_with_allow_missing(self):
        doc = {"name": "flow_trace"}
        status, _ = bench_check.run_check(
            doc, {"path": "name", "max": 3.0}, allow_missing=True)
        self.assertEqual(status, "FAIL")

    def test_bool_is_rejected_as_numeric(self):
        doc = {"flag": True}
        status, _ = bench_check.run_check(doc, {"path": "flag", "max": 3.0})
        self.assertEqual(status, "FAIL")

    def test_constraintless_check_fails(self):
        status, message = self.check(path="budget")
        self.assertEqual(status, "FAIL")
        self.assertIn("no constraint", message)


class MainTest(unittest.TestCase):
    """Exit-code behaviour with real files in a temp tree."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        root = pathlib.Path(self._tmp.name)
        self.baselines = root / "baselines"
        self.artifacts = root / "artifacts"
        self.baselines.mkdir()
        self.artifacts.mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, directory, name, doc):
        (directory / name).write_text(json.dumps(doc))

    def run_main(self, *extra):
        argv = ["bench_check.py", "--baselines", str(self.baselines),
                "--artifacts", str(self.artifacts), *extra]
        with mock.patch.object(sys, "argv", argv):
            return bench_check.main()

    def test_all_passing_returns_zero(self):
        self.write(self.baselines, "t.json", {
            "artifact": "BENCH_t.json",
            "checks": [{"path": "overhead", "max": 3.0}]})
        self.write(self.artifacts, "BENCH_t.json", {"overhead": 1.0})
        self.assertEqual(self.run_main(), 0)

    def test_failing_check_returns_one(self):
        self.write(self.baselines, "t.json", {
            "artifact": "BENCH_t.json",
            "checks": [{"path": "overhead", "max": 3.0}]})
        self.write(self.artifacts, "BENCH_t.json", {"overhead": 9.0})
        self.assertEqual(self.run_main(), 1)

    def test_missing_artifact_fails_without_allow_missing(self):
        self.write(self.baselines, "t.json", {
            "artifact": "BENCH_t.json",
            "checks": [{"path": "overhead", "max": 3.0}]})
        self.assertEqual(self.run_main(), 1)

    def test_missing_artifact_fails_even_with_allow_missing(self):
        # A deleted or renamed bench must not pass the gate silently.
        self.write(self.baselines, "t.json", {
            "artifact": "BENCH_t.json",
            "checks": [{"path": "overhead", "max": 3.0}]})
        self.assertEqual(self.run_main("--allow-missing"), 1)

    def test_missing_path_skips_with_allow_missing(self):
        self.write(self.baselines, "t.json", {
            "artifact": "BENCH_t.json",
            "checks": [{"path": "cycles_per_op", "max": 100.0}]})
        self.write(self.artifacts, "BENCH_t.json", {"overhead": 1.0})
        self.assertEqual(self.run_main("--allow-missing"), 0)
        self.assertEqual(self.run_main(), 1)

    def test_malformed_baseline_fails_even_with_allow_missing(self):
        self.write(self.baselines, "t.json", {"checks": []})  # no artifact
        self.assertEqual(self.run_main("--allow-missing"), 1)

    def test_check_without_path_fails(self):
        self.write(self.baselines, "t.json", {
            "artifact": "BENCH_t.json", "checks": [{"max": 3.0}]})
        self.write(self.artifacts, "BENCH_t.json", {"overhead": 1.0})
        self.assertEqual(self.run_main(), 1)

    def test_empty_baseline_dir_returns_two(self):
        self.assertEqual(self.run_main(), 2)

    def test_one_failure_among_many_checks_still_fails(self):
        self.write(self.baselines, "t.json", {
            "artifact": "BENCH_t.json",
            "checks": [{"path": "a", "max": 3.0},
                       {"path": "b", "min": 1.0}]})
        self.write(self.artifacts, "BENCH_t.json", {"a": 1.0, "b": 0.5})
        self.assertEqual(self.run_main(), 1)


if __name__ == "__main__":
    unittest.main()
