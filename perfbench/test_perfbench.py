#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

Each workload runs in its tiny configuration, traced and untraced, and must
emit exactly the metrics BENCHMARK.json declares, with their units; each
oracle is broken on purpose once and must report the break as a failed
operation; and without the repository's sources the benchmark must refuse
to run.
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
WORKLOADS = ("flow-cold", "flow-edit", "wami", "fleet")


def run(workload, trace=0, sabotage=None, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    if sabotage:
        cmd += ["--sabotage", sabotage]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsTest(unittest.TestCase):
    """One tiny run per workload and mode emits every declared metric."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_run(self, workload, trace, must_be_positive):
        result = result_of(run(workload, trace))
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {m["name"]: m["unit"] for m in declared},
            {name: m["unit"] for name, m in result["metrics"].items()})
        for name in must_be_positive:
            self.assertGreater(result["metrics"][name]["value"], 0, name)
        return result

    def test_end_to_end_metrics_are_never_zero(self):
        names = [m["name"] for m in self.spec["end_to_end"]]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0, names)

    def test_flow_cold_layers(self):
        result = self.check_run("flow-cold", 1, [
            "synth.ms", "floorplan.plan_ms", "pnr.static_ms",
            "bitstream.full_ms", "bitstream.crc_ms", "flow_cache.store_ms",
            "flow_cache.load_ms", "exec.tasks", "flow.coverage_cold",
            "flow.coverage_warm", "flow.model_min"])
        self.assertEqual(result["metrics"]["sim.events"]["value"], 0)

    def test_flow_edit_layers(self):
        result = self.check_run("flow-edit", 1, [
            "floorplan.plan_ms", "flow_cache.load_ms", "flow_cache.hits",
            "flow_cache.misses", "pnr.partition_ms", "flow.coverage_warm"])
        # One module miss per SoC (tiny builds SoC_X only).
        self.assertEqual(result["metrics"]["flow_cache.misses"]["value"], 1)
        self.assertEqual(result["metrics"]["pnr.static_ms"]["value"], 0)

    def test_wami_layers(self):
        self.check_run("wami", 1, [
            "sim.events", "sim.ns_per_event", "wami.datapath_ms_per_frame",
            "wami.sim_ms_per_frame", "wami.sim_mj_per_frame",
            "runtime.reconfigurations", "noc.flits", "soc.energy_mj.icap"])

    def test_fleet_layers(self):
        self.check_run("fleet", 1, [
            "fleet.step_ms", "fleet.submitted", "fleet.p99_cycles",
            "fleet.p99_cycles_overload", "fleet.goodput_per_kquanta",
            "runtime.reconfigurations", "repacker.migrations"])


class OracleTest(unittest.TestCase):
    """Every oracle can fail: a broken output is a failed operation."""

    def assert_fails(self, workload, sabotage, trace=0):
        result = result_of(run(workload, trace, sabotage))
        self.assertFalse(result["correct"], result)
        self.assertGreater(result["failed"], 0)

    def test_corrupt_partial_fails_flow_cold(self):
        self.assert_fails("flow-cold", "corrupt-partial")

    def test_corrupt_partial_fails_traced_flow_edit(self):
        self.assert_fails("flow-edit", "corrupt-partial", trace=1)

    def test_skewed_parameters_fail_wami(self):
        self.assert_fails("wami", "skew-params")

    def test_dropped_outcome_fails_fleet(self):
        self.assert_fails("fleet", "drop-outcome")


class LayoutTest(unittest.TestCase):
    """Without the repository's sources the benchmark refuses to run."""

    def test_refuses_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_scratch")
        os.makedirs(scratch, exist_ok=True)
        alone = tempfile.mkdtemp(dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
            shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("wami", cwd=alone,
                       script=os.path.join(alone, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            lines = proc.stdout.strip().splitlines()
            self.assertFalse(lines and lines[-1].startswith("{"), lines)
        finally:
            shutil.rmtree(alone)
            try:
                os.rmdir(scratch)
            except OSError:
                pass


if __name__ == "__main__":
    unittest.main()
