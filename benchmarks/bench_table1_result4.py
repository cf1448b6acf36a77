"""E4/E16 — Table 1, Result 4: Algorithms 4-6 (no knowledge, relaxed).

Paper claims for initial symmetry degree l: memory O((k/l) log(n/l)),
time O(n/l), moves O(kn/l) — the algorithm adapts to the symmetry of
the initial configuration.  The l-sweep fixes (n, k) and doubles l;
every measured quantity should roughly halve.  The n-sweep at l = 1
checks the worst-case envelope (memory O(k log n), time O(n), moves
O(kn)) against the declared ceilings (``get_algorithm(ALGO).bounds``).
"""

from __future__ import annotations

import random

from repro.analysis.complexity import loglog_slope
from repro.experiments.runner import run_experiment
from repro.experiments.table1 import symmetry_placement
from repro.registry import get_algorithm
from repro.ring.placement import random_placement

from benchmarks.conftest import report

ALGO = "unknown"
BOUNDS = get_algorithm(ALGO).bounds
L_SWEEP = [1, 2, 4, 8]
FIXED_N = 240
FIXED_K = 16
N_SWEEP = [60, 120, 240, 480]


def test_result4_adaptivity_in_symmetry_degree(benchmark):
    def sweep():
        return [
            run_experiment(
                ALGO,
                symmetry_placement(FIXED_N, FIXED_K, degree, seed=6),
                memory_audit_interval=1,
            )
            for degree in L_SWEEP
        ]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    slope = loglog_slope(L_SWEEP, [r.total_moves for r in results])
    rows = [
        {
            "n": FIXED_N,
            "k": FIXED_K,
            "l": r.placement.symmetry_degree,
            "total_moves": r.total_moves,
            "ideal_time": r.ideal_time,
            "memory_bits": r.max_memory_bits,
            "moves*l/kn": round(
                r.total_moves
                * r.placement.symmetry_degree
                / (FIXED_K * FIXED_N),
                2,
            ),
            "uniform": r.ok,
        }
        for r in results
    ]
    report(
        "E4/E16 Result 4 (Algs. 4-6) - adaptivity in l  [paper: O(kn/l) moves, "
        "O(n/l) time, O((k/l) log(n/l)) memory]",
        rows,
        notes=f"log-log slope of moves vs l = {slope:.2f} (expect ~ -1.0)",
    )
    assert all(r.ok for r in results)
    assert -1.3 <= slope <= -0.7
    # Time and memory shrink monotonically with l.
    times = [r.ideal_time for r in results]
    memories = [r.max_memory_bits for r in results]
    assert times == sorted(times, reverse=True)
    assert memories == sorted(memories, reverse=True)


def test_result4_worst_case_envelope(benchmark):
    def sweep():
        rng = random.Random(7)
        return [
            run_experiment(ALGO, random_placement(n, FIXED_K, rng)) for n in N_SWEEP
        ]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    slope = loglog_slope(N_SWEEP, [r.total_moves for r in results])
    rows = [
        {
            "n": r.placement.ring_size,
            "k": FIXED_K,
            "l": r.placement.symmetry_degree,
            "total_moves": r.total_moves,
            "moves/ceiling": round(
                r.total_moves / BOUNDS.max_moves(r.placement.ring_size, FIXED_K),
                2,
            ),
            "ideal_time": r.ideal_time,
            "time/n": round(r.ideal_time / r.placement.ring_size, 2),
            "uniform": r.ok,
        }
        for r in results
    ]
    report(
        "E4 Result 4 (Algs. 4-6) - worst case (l=1)  [paper: O(kn) moves "
        "within the 14n-per-agent budget, O(n) time]",
        rows,
        notes=f"log-log slope of moves vs n = {slope:.2f} (expect ~1.0)",
    )
    assert all(r.ok for r in results)
    assert 0.7 <= slope <= 1.3
    for r in results:
        n = r.placement.ring_size
        assert r.total_moves <= BOUNDS.max_moves(n, FIXED_K)
        assert r.ideal_time <= BOUNDS.max_ideal_time(n, FIXED_K)
