#!/usr/bin/env python3
"""Self-tests of the flow benchmark.

Run from the repository root (takes about a minute):

    python3 perfbench/tests/test_flowbench.py

They build the benchmark and the `fsct` command-line tool into
.bench_build/perfbench and check that the in-process flow is the CLI flow,
that a seed gives the same verdicts on every run, and that the benchmark
fails cleanly without the sources.
"""
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
import run  # noqa: E402  (perfbench/run.py)

TMP = os.path.join(ROOT, ".bench_build", "selftest")


def flowbench(*args):
    return subprocess.run([run.build("flowbench"), *args], cwd=ROOT,
                          capture_output=True, text=True)


def fsct(*args):
    return subprocess.run([run.build("perfbench_fsct"), *args], cwd=ROOT,
                          capture_output=True, text=True)


def time_limit_hits(metrics_json):
    with open(metrics_json) as f:
        return json.load(f)["counters"]["podem_time_limit_hits"]


class FlowIsTheCliFlow(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(TMP, ignore_errors=True)
        os.makedirs(TMP)

    def flow_pair(self, bench_in, chains, cli_circuit):
        """Writes the program with both flows; returns the two paths."""
        ours = os.path.join(TMP, "ours.fsct")
        theirs = os.path.join(TMP, "theirs.fsct")
        r = flowbench("flow", bench_in, "--chains", str(chains), "-o", ours)
        self.assertEqual(r.returncode, 0, r.stderr)
        # `fsct test` exits 1 when faults stay undetected; both are results.
        r = fsct("test", cli_circuit, "--chains", str(chains), "-o", theirs,
                 "--metrics", os.path.join(TMP, "m.json"))
        self.assertIn(r.returncode, (0, 1), r.stdout + r.stderr)
        return ours, theirs

    def assert_same_outputs(self, ours, theirs):
        # The scanned netlist involves no ATPG and must always match; the
        # program only when no wall-clock PODEM limit cut a call short.
        self.assertTrue(filecmp.cmp(ours + ".bench", theirs + ".bench",
                                    shallow=False))
        hits = time_limit_hits(os.path.join(TMP, "m.json"))
        same = filecmp.cmp(ours, theirs, shallow=False)
        if hits == 0:
            self.assertTrue(same)
        elif not same:
            print(f"note: programs differ with {hits} wall-clock PODEM "
                  "limit hits; not asserted", file=sys.stderr)

    def test_many_small_circuit_program_is_byte_identical(self):
        r = flowbench("inputs", "--workload", "many-small", "--work", TMP)
        self.assertEqual(r.returncode, 0, r.stderr)
        path, chains = r.stdout.splitlines()[0].split()
        self.assert_same_outputs(*self.flow_pair(path, int(chains), path))

    def test_large_chip_is_the_suite_s13207(self):
        r = flowbench("inputs", "--workload", "large-chip", "--work", TMP)
        self.assertEqual(r.returncode, 0, r.stderr)
        path, chains = r.stdout.split()
        self.assertEqual(chains, "5")
        self.assert_same_outputs(*self.flow_pair(path, 5, "s13207"))


class SeedGivesSameVerdicts(unittest.TestCase):
    def run_once(self):
        r = flowbench("--workload", "many-small", "--seed", "3",
                      "--seconds", "0", "--trace", "1", "--work", TMP)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        digest = re.search(r"digest ([0-9a-f]{16})", r.stdout).group(1)
        # A re-gated flow means a pass of this run gave other verdicts.
        regated = int(re.search(r"re-gated flows (\d+)", r.stdout).group(1))
        hits = result["metrics"]["atpg.podem_time_limit_hits"]["value"]
        return digest, hits + regated

    def test_two_runs_give_one_digest(self):
        (d1, h1), (d2, h2) = self.run_once(), self.run_once()
        if h1 == 0 and h2 == 0:
            self.assertEqual(d1, d2)
        elif d1 != d2:
            print(f"note: digests differ ({d1} vs {d2}) with wall-clock "
                  "PODEM limit hits; not asserted", file=sys.stderr)


class ContractEdges(unittest.TestCase):
    def test_fails_without_sources(self):
        # BENCHMARK.json and perfbench/ alone: the build must fail fast and
        # print no result.
        lone = os.path.join(TMP, "lone")
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(PERFBENCH, os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            command = json.load(f)["command"]
        r = subprocess.run(command + ["--workload", "many-small", "--seed",
                                      "1", "--seconds", "1", "--trace", "0"],
                           cwd=lone, capture_output=True, text=True,
                           timeout=180)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"correct"', r.stdout)

    def test_unknown_workload_is_a_usage_error(self):
        r = flowbench("--workload", "nope", "--work", TMP)
        self.assertEqual(r.returncode, 2)
        self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    unittest.main()
