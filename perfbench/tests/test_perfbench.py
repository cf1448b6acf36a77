"""Smoke tests of the benchmark: the same workloads at tiny sizes.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, workloads
from perfbench import run as bench

CONTRACT = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]


@pytest.fixture(scope="module")
def printed():
    """The printed report of every workload, untraced and traced."""
    cache = {}

    def get(workload: str, trace: bool):
        if (workload, trace) not in cache:
            report = bench.run_workload(workload, seed=3, seconds=0.1, trace=trace, smoke=True)
            cache[workload, trace] = bench.render(report)
        return cache[workload, trace]

    return get


def _check_metrics(lines, declared):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        printed = [line for line in lines if line.startswith(f"metric {entry['name']} ")]
        assert len(printed) == 1 and printed[0].endswith(f" {entry['unit']}")
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(printed, workload):
    result = _check_metrics(printed(workload, False), CONTRACT["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert any(line.startswith("failed_frac 0 ") for line in printed(workload, False))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(printed, workload):
    result = _check_metrics(printed(workload, True), CONTRACT["per_layer"])
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    # Every workload loads the engine, the encodings and the store.
    for name in ("engine.step.calls", "agent.act.calls", "configuration.packed_layout.calls",
                 "store.put.calls", "serve.handle.calls", "spill.append_wave.bytes"):
        assert metrics[name] > 0, name
    if workload == "sweep_batch":
        assert metrics["batch.run_batch.calls"] > 0
        assert any(line.startswith("matrix ") for line in printed(workload, True))
    else:
        assert metrics["runner.run_experiment.calls"] > 0


def test_contract_matches_the_code():
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert {e["name"]: e["unit"] for e in CONTRACT["end_to_end"]} == workloads.END_TO_END
    assert {e["name"]: e["unit"] for e in CONTRACT["per_layer"]} == layers.PER_LAYER
    setup = next(e for e in CONTRACT["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in CONTRACT["end_to_end"])


@pytest.mark.parametrize(
    "workload, forged",
    [
        ("verify", {"states": 241}),  # the pinned smoke cell has 240 states
        ("sweep_batch", {"digest": "0" * 64}),  # the object sweep's digest
    ],
)
def test_forged_expectation_shows_in_failed_frac(workload, forged):
    report = bench.run_workload(
        workload, seed=3, seconds=0.1, trace=False, smoke=True, expect=forged
    )
    result = report["result"]
    assert not result["correct"]
    assert result["failed"] > 0 and report["failed_frac"] > 0
    assert report["problems"]


def test_refuses_to_run_without_the_package(tmp_path: Path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        bench.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
