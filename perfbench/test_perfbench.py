"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import harness
import inputs
import run
import tracer as tr
from workloads import WORKLOADS

sys.path.insert(0, harness.SRC)
with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(*argv, root=harness.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py")]
        + list(argv), cwd=root, capture_output=True, text=True, timeout=170)


def test_spec_matches_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        tr.PER_LAYER)
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "op_p99_ms", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_reported_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.2",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_all_prints_every_end_to_end_metric():
    proc = _run("--workload", "all", "--seed", "5", "--seconds", "0.2",
                "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    printed = {tuple(line.split()[:2]) for line in proc.stdout.splitlines()}
    for name in WORKLOADS:
        for m in SPEC["end_to_end"]:
            assert (name, m["name"]) in printed
        for metric in ("ops_per_s", "op_p50_ms", "failed_share"):
            assert (name, metric) in printed
    for cmd in ("simulate_s", "estimate_s", "bootstrap_s"):
        assert ("cli_micro", cmd) in printed
    for cmd in ("audit_groups_s", "audit_panel_s", "audit_design_s"):
        assert ("cli_audit", cmd) in printed


def _corrupt_bootstrap_report(op, result):
    path = op[1]
    with open(path) as fh:
        payload = json.load(fh)
    payload["draws"].pop()
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return result


def _corrupt_design_report(op, result):
    path = op[1]
    if os.path.basename(path) == "design.json":
        with open(path) as fh:
            payload = json.load(fh)
        payload["bounds"]["ate"]["width"] *= 1.01
        with open(path, "w") as fh:
            json.dump(payload, fh)
    return result


def _corrupt_interval(op, result):
    import dataclasses
    return dataclasses.replace(result, ci=(0.0, 1.5))


@pytest.mark.parametrize("workload,corrupt,kind", [
    ("mc_study", _corrupt_interval, "tied"),
    ("cli_micro", _corrupt_bootstrap_report, "bootstrap_iv"),
    ("cli_audit", _corrupt_design_report, "design"),
])
def test_corrupted_report_counts_as_failed(workload, corrupt, kind):
    workdir = os.path.join(harness.WORK, "test-%s-%d" % (workload, os.getpid()))
    os.makedirs(workdir)
    try:
        inputs.write_inputs(workload, inputs.make_inputs(
            workload, 5, inputs.SMOKE), workdir)
        wl = WORKLOADS[workload](5, inputs.SMOKE, workdir)
        honest = wl.execute

        def execute(op, how, tracer=None):
            result = honest(op, how, tracer)
            return corrupt(op, result) if kind in str(op) else result

        wl.execute = execute
        tally, _ = run.timed_run(wl, 0.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert tally.failures[kind] >= 1
    assert all(n == 0 for k, n in tally.failures.items() if k != kind)


def test_refuses_to_run_without_the_package():
    bare = os.path.join(harness.WORK, "bare-%d" % os.getpid())
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(harness.PERFBENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("--workload", "mc_study", "--seed", "1", "--seconds", "1",
                    "--trace", "0", root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
