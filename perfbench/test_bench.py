#!/usr/bin/env python3
"""The benchmark's own tests: a tiny-size smoke run of every workload, the
compare tool's verdicts, the world-count check, and the refusal to run
without the sources.

    python3 perfbench/test_bench.py

The smoke runs build gc_ledger like the benchmark does (into
$CARGO_TARGET_DIR or .bench_build) and shrink every world to a few hundred
peers, so the whole file takes about a minute after the build.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE_SCALE = "0.02"


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--scale", SMOKE_SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_result(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = result_of(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        for entry in declared:
            metric = result["metrics"][entry["name"]]
            self.assertEqual(metric["unit"], entry["unit"], entry["name"])
            self.assertIsInstance(metric["value"], (int, float))
            # Each metric is also printed for people, with its unit.
            self.assertRegex(proc.stdout,
                             rf"{entry['name']}\s+\S+ {entry['unit']}")
        return result

    def check_spans(self, workload):
        path = os.path.join(
            ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
            "spans", f"{workload}-3.jsonl")
        with open(path) as f:
            spans = [json.loads(line) for line in f]
        self.assertEqual({s["run"] for s in spans},
                         {f"{workload}/3/traced"})
        names = [s["name"] for s in spans]
        for span in spans:
            self.assertLessEqual(span["start_us"], span["end_us"])
            if span["parent"] < 0:
                self.assertIn(span["name"], ("setup", "run"))
                continue
            parent = spans[span["parent"]]
            self.assertLess(span["parent"], span["id"])
            self.assertLessEqual(parent["start_us"], span["start_us"])
            self.assertLessEqual(span["end_us"], parent["end_us"])
        expected_parent = {
            "net.underlay": "setup", "net.routing": "setup",
            "coords.embed": "setup", "overlay.bootstrap": "setup",
            "overlay.join": "overlay.bootstrap", "core.fork": "run",
            "core.run": "run", "core.establish": "run",
            "core.session": "run"}
        for span in spans:
            if span["parent"] >= 0:
                self.assertEqual(spans[span["parent"]]["name"],
                                 expected_parent[span["name"]])
        order = [n for n in names if n not in ("overlay.join",
                                                 "core.establish",
                                                 "core.session")]
        self.assertEqual(order[:6], ["setup", "net.underlay", "net.routing",
                                     "coords.embed", "overlay.bootstrap",
                                     "run"])
        self.assertGreater(names.count("overlay.join"), 100)
        if workload == "paper_groups_10k":
            self.assertEqual(names.count("core.establish"), 10)
            self.assertEqual(names.count("core.session"), 10)
        else:
            self.assertEqual(names.count("core.run"), 1)

    def test_every_workload_untraced_and_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                result = self.check_result(run_bench(workload, 0),
                                           SPEC["end_to_end"])
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)
            with self.subTest(workload=workload, trace=1):
                result = self.check_result(run_bench(workload, 1),
                                           SPEC["per_layer"])
                metrics = result["metrics"]
                self.assertGreater(metrics["net.routers"]["value"], 0)
                self.assertGreater(metrics["overlay.edges"]["value"], 0)
                self.assertGreater(metrics["sim.events"]["value"], 0)
                self.check_spans(workload)


class CompareTest(unittest.TestCase):
    def write_runs(self, directory, workload, values):
        os.makedirs(directory, exist_ok=True)
        for seed, value in enumerate(values):
            metrics = {m["name"]: {"value": value, "unit": m["unit"]}
                       for m in SPEC["end_to_end"]}
            with open(os.path.join(directory, f"{workload}-{seed}.out"),
                      "w") as f:
                f.write("some report line\n")
                f.write(json.dumps({"correct": True, "attempted": 1,
                                    "failed": 0, "metrics": metrics}) + "\n")

    def verdicts(self, parent, change):
        with tempfile.TemporaryDirectory() as tmp:
            self.write_runs(os.path.join(tmp, "a"), WORKLOADS[0], parent)
            self.write_runs(os.path.join(tmp, "b"), WORKLOADS[0], change)
            rows = compare.compare(os.path.join(tmp, "a"),
                                   os.path.join(tmp, "b"), SPEC)
        self.assertEqual(len(rows), len(SPEC["end_to_end"]))
        return {row[1]: row[7] for row in rows}

    def test_verdicts(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
        faster = [v * 0.8 for v in parent]
        slower = [v * 1.5 for v in parent]
        noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 7.0, 13.0, 8.0, 12.0, 10.0]
        self.assertEqual(set(self.verdicts(parent, faster).values()),
                         {"improved"})
        self.assertEqual(set(self.verdicts(parent, parent).values()),
                         {"no worse"})
        self.assertEqual(set(self.verdicts(parent, slower).values()),
                         {"worse"})
        self.assertEqual(set(self.verdicts(noisy, noisy).values()),
                         {"unresolved"})


class WorldCountTest(unittest.TestCase):
    def test_fewer_worlds_than_asked_fail_a_check(self):
        outcome = {"attempted": 10, "failed": 0, "fail_ratio": 0.0,
                   "msgs_per_peer": 5.0, "events": 100}
        rep = {"setup_s": 0.1, "run_s": 0.2, "rss_mb": 3.0,
               "outcome": outcome}
        data = {"probe": [rep, rep], "reps": [rep, rep]}
        _, attempted = run.untraced_metrics(WORKLOADS[0], data, 2)
        self.assertEqual(attempted, 4)
        with self.assertRaisesRegex(run.CheckFailed, "metric=worlds"):
            run.untraced_metrics(WORKLOADS[0], data, 3)


class BareCheckoutTest(unittest.TestCase):
    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                 "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
                env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
