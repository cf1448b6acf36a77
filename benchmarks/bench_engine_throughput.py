"""Engine micro-benchmarks: atomic actions per second.

Not a paper table — operational data for users sizing their own sweeps.
pytest-benchmark timing is meaningful here (multiple rounds).

Besides the terminal tables, this module records one machine-readable
``BENCH_engine.json`` case per measurement (steps, mean seconds,
steps/second) so the throughput trajectory can be tracked.  The
large cases (n=1024, k=32) exist precisely for that trajectory: the
single-agent-per-batch ``RandomScheduler`` case is where a full O(k)
enabled-set rescan per step hurts most, and where the incremental
enabledness engine shows its gain.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict

from repro.experiments.runner import build_engine
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.ring.placement import random_placement
from repro.sim.scheduler import RandomScheduler

from benchmarks.conftest import record_case, report_lines



def _timed(make_engine: Callable[[], object]):
    """Return a zero-arg callable running one engine to quiescence.

    The callable returns ``(steps, wall_seconds)`` — its own clock, so
    the JSON trajectory does not depend on pytest-benchmark internals.
    """

    def runner():
        engine = make_engine()
        start = time.perf_counter()
        engine.run()
        return engine.steps, time.perf_counter() - start

    return runner


def _record_case(
    name: str, algorithm: str, n: int, k: int, scheduler: str, steps: int, seconds: float
) -> Dict[str, object]:
    return record_case(name, {
        "algorithm": algorithm,
        "n": n,
        "k": k,
        "scheduler": scheduler,
        "steps": steps,
        "mean_seconds": round(seconds, 6),
        "steps_per_second": round(steps / seconds) if seconds > 0 else None,
    })


def _bench_run(
    benchmark, name: str, algorithm: str, n: int, k: int, seed: int, scheduler: str
):
    def make_engine():
        placement = random_placement(n, k, random.Random(seed))
        sched = RandomScheduler(seed=seed) if scheduler == "random" else None
        return build_engine(algorithm, placement, scheduler=sched)

    steps, seconds = benchmark(_timed(make_engine))
    case = _record_case(name, algorithm, n, k, scheduler, steps, seconds)
    report_lines(
        f"Engine throughput - {name}",
        [
            f"atomic actions per run: {steps}",
            f"throughput: {steps / seconds:,.0f} actions/s",
        ],
    )
    assert steps > 0
    return case


def test_throughput_known_k_full(benchmark):
    _bench_run(benchmark, "known_k_full n=128 k=8 sync", "known_k_full", 128, 8, 20, "sync")


def test_throughput_logspace(benchmark):
    _bench_run(benchmark, "known_k_logspace n=128 k=8 sync", "known_k_logspace", 128, 8, 21, "sync")


def test_throughput_unknown(benchmark):
    _bench_run(benchmark, "unknown n=64 k=6 sync", "unknown", 64, 6, 22, "sync")


def test_throughput_large_sync(benchmark):
    # Large instance, synchronous batches: k agents per batch.
    _bench_run(benchmark, "known_k_full n=1024 k=32 sync", "known_k_full", 1024, 32, 7, "sync")


#: Seed-engine throughput for the case below, measured on the reference
#: container before the incremental enabledness rework.  Kept as the
#: regression floor: 2x leaves headroom for slower machines while still
#: failing loudly if the engine ever falls back to the O(k)-rescan
#: plateau (the incremental engine measures ~4x).
_SEED_RANDOM_CASE_ACTIONS_PER_SECOND = 70_000


def test_throughput_large_random_scheduler(benchmark):
    # The acceptance case for the incremental enabledness engine: one
    # agent per batch means a per-batch rescan costs O(k) per atomic
    # action; the live enabled set makes this O(1).
    case = _bench_run(
        benchmark, "known_k_full n=1024 k=32 random", "known_k_full", 1024, 32, 7, "random"
    )
    case["seed_baseline_steps_per_second"] = _SEED_RANDOM_CASE_ACTIONS_PER_SECOND
    assert case["steps_per_second"] > 2 * _SEED_RANDOM_CASE_ACTIONS_PER_SECOND


def test_throughput_sweep_grid(benchmark):
    # End-to-end sweep throughput through the parallel runner machinery
    # (serial here: benchmark timings must not include pool forking).
    spec = SweepSpec(
        algorithms=("known_k_full",),
        grid=((256, 16), (512, 16)),
        schedulers=("sync", "random"),
        base_seed=3,
    )

    def runner():
        start = time.perf_counter()
        rows = run_sweep(spec, processes=1)
        return rows, time.perf_counter() - start

    rows, seconds = benchmark.pedantic(runner, rounds=1, iterations=1)
    assert all(row["uniform"] for row in rows)
    total_moves = sum(int(row["total_moves"]) for row in rows)
    _record_case(
        "sweep 2x(n,k) x 2 schedulers",
        "known_k_full",
        512,
        16,
        "sync+random",
        total_moves,
        seconds,
    )
    report_lines(
        "Engine throughput - sweep grid (4 cells)",
        [f"cells: {len(rows)}", f"wall: {seconds:.3f}s"],
    )


def test_fork_cost_at_depth(benchmark):
    # The model checker's copy-on-branch primitive.  A fork copies the
    # agents' fields, so its cost follows n and k, not the run length.
    n, k, depth, forks = 64, 6, 1536, 100
    placement = random_placement(n, k, random.Random(22))
    engine = build_engine("unknown", placement, collect_metrics=False)
    while engine.steps < depth:
        engine.step(engine.enabled_agents()[0])
    per_fork = []

    def runner():
        start = time.perf_counter()
        for _ in range(forks):
            engine.fork()
        per_fork.append((time.perf_counter() - start) / forks)

    benchmark(runner)
    micros = min(per_fork) * 1e6
    record_case(f"engine fork unknown n={n} k={k} depth={depth}", {
        "algorithm": "unknown",
        "n": n,
        "k": k,
        "depth": depth,
        "us_per_fork": round(micros, 1),
    })
    report_lines("Engine fork - unknown n=64 k=6 after 1536 steps",
                 [f"{micros:,.1f} us per fork (best round)"])
    assert engine.fork().snapshot() == engine.snapshot()
