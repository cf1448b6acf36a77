"""E1 — Table 1, Result 1: Algorithm 1 (knowledge of k, O(k log n) memory).

Paper claims: memory O(k log n), ideal time O(n), total moves O(kn).
The n-sweep fixes k and checks time ~ n and moves ~ n (slope ~ 1 in
log-log space); the k-sweep fixes n and checks moves ~ k and memory ~ k.
The declared ceilings (``get_algorithm(ALGO).bounds``) are also
asserted on every run.
"""

from __future__ import annotations

import math

from repro.analysis.complexity import loglog_slope
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import SweepSpec, execute_sweep
from repro.registry import get_algorithm
from repro.ring.placement import random_placement

from benchmarks.conftest import report

import random

ALGO = "known_k_full"
BOUNDS = get_algorithm(ALGO).bounds
N_SWEEP = [64, 128, 256, 512]
K_SWEEP = [4, 8, 16, 32]
FIXED_K = 8
FIXED_N = 256


def _run_sweep(pairs, seed=1):
    # Through the sweep runner: deterministic per-cell seeds, and the
    # same grid can be re-run in parallel from the CLI (`repro psweep`).
    spec = SweepSpec(
        algorithms=(ALGO,), grid=tuple(pairs), base_seed=seed
    )
    return execute_sweep(spec, processes=1).rows


def test_result1_time_scales_linearly_in_n(benchmark):
    rows = benchmark.pedantic(
        _run_sweep, args=([(n, FIXED_K) for n in N_SWEEP],), rounds=1, iterations=1
    )
    times = [row["ideal_time"] for row in rows]
    slope = loglog_slope(N_SWEEP, times)
    table = [
        {
            "n": row["n"],
            "k": FIXED_K,
            "ideal_time": row["ideal_time"],
            "time/n": round(row["ideal_time"] / row["n"], 2),
            "total_moves": row["total_moves"],
            "uniform": row["uniform"],
        }
        for row in rows
    ]
    report(
        "E1 Result 1 (Alg. 1) - time vs n  [paper: O(n)]",
        table,
        notes=f"log-log slope = {slope:.2f} (expect ~1.0)",
    )
    assert all(row["uniform"] for row in rows)
    assert 0.7 <= slope <= 1.3
    assert all(
        row["ideal_time"] <= BOUNDS.max_ideal_time(row["n"], row["k"])
        for row in rows
    )


def test_result1_moves_scale_linearly_in_k(benchmark):
    rows = benchmark.pedantic(
        _run_sweep, args=([(FIXED_N, k) for k in K_SWEEP],), rounds=1, iterations=1
    )
    moves = [row["total_moves"] for row in rows]
    slope = loglog_slope(K_SWEEP, moves)
    table = [
        {
            "n": FIXED_N,
            "k": row["k"],
            "total_moves": row["total_moves"],
            "moves/kn": round(row["total_moves"] / (row["k"] * FIXED_N), 2),
            "uniform": row["uniform"],
        }
        for row in rows
    ]
    report(
        "E1 Result 1 (Alg. 1) - moves vs k  [paper: O(kn)]",
        table,
        notes=f"log-log slope = {slope:.2f} (expect ~1.0)",
    )
    assert all(row["uniform"] for row in rows)
    assert 0.7 <= slope <= 1.3
    assert all(
        row["total_moves"] <= BOUNDS.max_moves(FIXED_N, row["k"]) for row in rows
    )


def test_result1_memory_scales_linearly_in_k(benchmark):
    def sweep():
        rng = random.Random(2)
        return [
            run_experiment(
                ALGO, random_placement(FIXED_N, k, rng), memory_audit_interval=1
            )
            for k in K_SWEEP
        ]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    memory = [r.max_memory_bits for r in results]
    slope = loglog_slope(K_SWEEP, memory)
    rows = [
        {
            "n": FIXED_N,
            "k": r.placement.agent_count,
            "memory_bits": r.max_memory_bits,
            "bits/(k log n)": round(
                r.max_memory_bits
                / (r.placement.agent_count * math.log2(FIXED_N)),
                2,
            ),
        }
        for r in results
    ]
    report(
        "E1 Result 1 (Alg. 1) - memory vs k  [paper: O(k log n)]",
        rows,
        notes=f"log-log slope = {slope:.2f} (expect ~1.0: memory is Theta(k log n))",
    )
    assert 0.6 <= slope <= 1.3
