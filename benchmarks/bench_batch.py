"""Batch-backend throughput: columnar trials vs serial object trials.

The batch backend exists only where it beats the object engine: the
full-information kernels under ``sync`` at large batch sizes.  Two
cells pin that floor:

* the acceptance cell (``known_n_full``, n=1024, k=16, sync — the
  fused-round sweet spot at production ring sizes) run as a single
  B=512 numpy batch must beat the object engine's per-trial wall clock
  by **at least 10x**,
* a mid-size cell (``known_k_full``, n=256, k=8, sync, B=64) must beat
  it by **at least 2x**, so the other surviving kernel keeps its own
  measured reason to exist.

The object baseline is measured on a deterministic sample of the very
same specs, so both sides pay identical placement/scheduler
construction costs and the ratio isolates the execution model.  The
batch side takes the best of two full runs — scheduler noise on a
shared machine only ever adds time, so the minimum is the robust
estimate.

Like the other engine benchmarks, the measured cases are merged into
``BENCH_engine.json`` so the speedup trajectory is tracked.
"""

from __future__ import annotations

import time
from typing import List

import pytest

from repro.experiments.runner import run_experiment
from repro.sim.batch import run_batch
from repro.sim.batch.runner import validation_sample
from repro.spec import ExperimentSpec, PlacementSpec

from benchmarks.conftest import record_case, report_lines

_SCHEDULER = "sync"
_BATCH_ROUNDS = 2  # best-of: timing noise only ever adds time
_ORACLE_SAMPLE = 8


def _specs(algorithm: str, n: int, k: int, trials: int) -> List[ExperimentSpec]:
    return [
        ExperimentSpec(
            algorithm=algorithm,
            placement=PlacementSpec(
                kind="random", ring_size=n, agent_count=k, seed=9000 + trial
            ),
            scheduler=_SCHEDULER,
            scheduler_seed=(9000 + trial) ^ 0x5DEECE66D,
        )
        for trial in range(trials)
    ]


@pytest.mark.parametrize(
    "algorithm, n, k, trials, required",
    [
        ("known_n_full", 1024, 16, 512, 10.0),
        ("known_k_full", 256, 8, 64, 2.0),
    ],
)
def test_batch_backend_speedup(benchmark, algorithm, n, k, trials, required):
    specs = _specs(algorithm, n, k, trials)

    def batch_run():
        times = []
        for _ in range(_BATCH_ROUNDS):
            start = time.perf_counter()
            results = run_batch(specs)
            times.append(time.perf_counter() - start)
        return results, min(times)

    results, batch_seconds = benchmark.pedantic(
        batch_run, rounds=1, iterations=1
    )
    assert all(result.report.ok for result in results)
    batch_per_trial = batch_seconds / trials

    sample = validation_sample(trials, _ORACLE_SAMPLE)
    start = time.perf_counter()
    for trial in sample:
        run_experiment(specs[trial])
    object_per_trial = (time.perf_counter() - start) / len(sample)

    speedup = object_per_trial / batch_per_trial
    record_case(f"batch {algorithm} n={n} k={k} {_SCHEDULER} B={trials}", {
        "algorithm": algorithm,
        "n": n,
        "k": k,
        "scheduler": _SCHEDULER,
        "batch_trials": trials,
        "batch_seconds_per_trial": round(batch_per_trial, 6),
        "object_seconds_per_trial": round(object_per_trial, 6),
        "speedup_vs_object": round(speedup, 1),
        "required_speedup": required,
    })
    report_lines(
        f"Batch backend - {algorithm} n={n} k={k}",
        [
            f"cell: {algorithm} n={n} k={k} {_SCHEDULER}, B={trials}",
            f"object engine: {object_per_trial * 1e3:.3f} ms/trial "
            f"(sample of {len(sample)})",
            f"batch engine:  {batch_per_trial * 1e3:.3f} ms/trial",
            f"speedup: {speedup:.1f}x (floor: {required:.0f}x)",
        ],
    )
    assert speedup >= required, (
        f"batch backend managed only {speedup:.1f}x over the object engine "
        f"on {algorithm} n={n} k={k} (floor: {required:.0f}x)"
    )
