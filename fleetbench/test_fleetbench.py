#!/usr/bin/env python3
"""Checks on the benchmark's own files.

    python3 fleetbench/test_fleetbench.py

Needs no build: it reads the sources, BENCHMARK.json and run.py's helpers.
"""

import json
import re
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _join(*parts):
    return "".join(parts)


# APIs that ROADMAP items 1-3 delete: the trigger memo and its snapshots, the
# lane engine's alternative policies and their counters, and the early-value
# check option.  The benchmark must build and run after each deletion, so it
# names none of them.  They are spelled in pieces here because this file is
# scanned too.
DELETED_APIS = [
    re.compile(_join("trigger", "_cache")),  # also the concurrent_ and share_ forms
    re.compile(_join("shared", "_cache")),
    re.compile(r"\b" + _join("cache", "_") + r"\w"),  # the result fields
    re.compile(_join("persist", "::")),
    re.compile(_join("lane", "_policy")),
    re.compile(_join("fo", "rk"), re.IGNORECASE),
    re.compile(_join("re", "play"), re.IGNORECASE),
    re.compile(_join("queue", "_kind")),
    re.compile(_join("lockstep", "_fraction")),
    re.compile(_join("lane", "_groups")),
    re.compile(_join("check", "_early", "_value")),
]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark_files():
    return sorted(p for p in HERE.rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts)


class DeletionGuard(unittest.TestCase):
    def test_sources_name_no_deleted_api(self):
        hits = []
        for path in benchmark_files():
            for number, line in enumerate(path.read_text().splitlines(), 1):
                hits += [f"{path.name}:{number}: {line.strip()}"
                         for pattern in DELETED_APIS if pattern.search(line)]
        self.assertEqual(hits, [])


class BenchmarkSpec(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_shape(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end", "per_layer"})
        self.assertEqual(self.spec["paths"], ["fleetbench"])
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in self.spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)

    def test_metrics(self):
        bounds = {}
        for metric in self.spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25, metric)
            bounds[metric["name"]] = metric["bound"]
        for metric in self.spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertTrue(UNIT.fullmatch(metric["unit"]), metric)
            self.assertIn(metric["better"], ("higher", "lower"))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_driver_reports_every_metric_and_workload(self):
        source = (HERE / "fleetbench.cpp").read_text()
        for metric in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(source, r'\{"%s",\s' % re.escape(metric["name"]))
            self.assertIn(f'"{metric["unit"]}"}}', source)
        for workload in self.spec["workloads"]:
            self.assertRegex(source, r'\{"%s",\s' % re.escape(workload["name"]))


class Repeatability(unittest.TestCase):
    def test_rows_must_repeat_at_a_seed(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            run.check_repeatable(out, "itc99-seq/1/abc", "00ff")
            run.check_repeatable(out, "itc99-seq/1/abc", "00ff")
            run.check_repeatable(out, "itc99-seq/2/abc", "1234")
            with self.assertRaises(SystemExit):
                run.check_repeatable(out, "itc99-seq/1/abc", "00fe")


if __name__ == "__main__":
    unittest.main()
