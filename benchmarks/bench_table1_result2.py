"""E2 — Table 1, Result 2: Algorithms 2+3 (knowledge of k, O(log n) memory).

Paper claims: memory O(log n) (independent of k), ideal time
O(n log k), total moves O(kn).  The k-sweep shows memory staying flat
while Algorithm 1's grows; the n-sweep and the moves sweep check the
declared ceilings (``get_algorithm(ALGO).bounds``) on time and moves.
"""

from __future__ import annotations

import math
import random

from repro.analysis.complexity import loglog_slope
from repro.experiments.runner import run_experiment
from repro.registry import get_algorithm
from repro.ring.placement import random_placement

from benchmarks.conftest import report

ALGO = "known_k_logspace"
BOUNDS = get_algorithm(ALGO).bounds
N_SWEEP = [64, 128, 256, 512]
K_SWEEP = [4, 8, 16, 32]
FIXED_K = 8
FIXED_N = 256


def test_result2_memory_independent_of_k(benchmark):
    def sweep():
        rng = random.Random(3)
        rows = []
        for k in K_SWEEP:
            placement = random_placement(FIXED_N, k, rng)
            logspace = run_experiment(ALGO, placement, memory_audit_interval=1)
            full = run_experiment("known_k_full", placement, memory_audit_interval=1)
            rows.append((k, logspace, full))
        return rows

    measured = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        {
            "n": FIXED_N,
            "k": k,
            "logspace_bits": logspace.max_memory_bits,
            "alg1_bits": full.max_memory_bits,
            "uniform": logspace.ok,
        }
        for k, logspace, full in measured
    ]
    spread = max(r.max_memory_bits for _, r, _ in measured) - min(
        r.max_memory_bits for _, r, _ in measured
    )
    report(
        "E2 Result 2 (Algs. 2+3) - memory vs k  [paper: O(log n), flat in k]",
        rows,
        notes=f"logspace spread over k: {spread} bits (Alg. 1 grows ~linearly)",
    )
    assert all(r.ok for _, r, _ in measured)
    # Flat in k: within a couple of counter-widths across an 8x k range.
    assert spread <= 24
    # And strictly below Algorithm 1 at the largest k.
    _, logspace_big, full_big = measured[-1]
    assert logspace_big.max_memory_bits < full_big.max_memory_bits / 2


def test_result2_time_is_n_log_k(benchmark):
    def sweep():
        rng = random.Random(4)
        return [
            run_experiment(ALGO, random_placement(n, FIXED_K, rng)) for n in N_SWEEP
        ]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    slope = loglog_slope(N_SWEEP, [r.ideal_time for r in results])
    rows = [
        {
            "n": r.placement.ring_size,
            "k": FIXED_K,
            "ideal_time": r.ideal_time,
            "time/(n log k)": round(
                r.ideal_time
                / (r.placement.ring_size * math.log2(FIXED_K)),
                2,
            ),
            "uniform": r.ok,
        }
        for r in results
    ]
    report(
        "E2 Result 2 (Algs. 2+3) - time vs n  [paper: O(n log k)]",
        rows,
        notes=f"log-log slope vs n = {slope:.2f} (expect ~1.0 at fixed k)",
    )
    assert all(r.ok for r in results)
    assert 0.7 <= slope <= 1.3
    assert all(
        r.ideal_time <= BOUNDS.max_ideal_time(r.placement.ring_size, FIXED_K)
        for r in results
    )


def test_result2_moves_scale_with_kn(benchmark):
    def sweep():
        rng = random.Random(5)
        return [
            run_experiment(ALGO, random_placement(FIXED_N, k, rng)) for k in K_SWEEP
        ]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    slope = loglog_slope(K_SWEEP, [r.total_moves for r in results])
    rows = [
        {
            "n": FIXED_N,
            "k": r.placement.agent_count,
            "total_moves": r.total_moves,
            "moves/kn": round(
                r.total_moves / (r.placement.agent_count * FIXED_N), 2
            ),
            "uniform": r.ok,
        }
        for r in results
    ]
    report(
        "E2 Result 2 (Algs. 2+3) - moves vs k  [paper: O(kn)]",
        rows,
        notes=f"log-log slope = {slope:.2f} (expect ~1.0; constant below 4)",
    )
    assert all(r.ok for r in results)
    assert all(
        r.total_moves <= BOUNDS.max_moves(FIXED_N, r.placement.agent_count)
        for r in results
    )
