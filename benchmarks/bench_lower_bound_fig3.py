"""E5/E6 — Theorems 1-2 / Figure 3: Omega(kn) moves, Omega(n) time.

Quarter-packed configurations force (k/4)(n/4) total moves for any
algorithm.  We measure, per (n, k): the explicit kn/16 floor, the exact
omniscient optimum, and every algorithm's total — the ratio
algorithm/optimum stays bounded (the paper's asymptotic optimality),
and measured ideal time lies between the Omega(n) floor and each
algorithm's declared ceiling (``get_algorithm(name).bounds``).
"""

from __future__ import annotations

from repro.experiments.lower_bound import quarter_sweep
from repro.experiments.runner import run_experiment
from repro.registry import get_algorithm
from repro.ring.placement import quarter_packed_placement

from benchmarks.conftest import report

SIZES = [(64, 8), (128, 16), (256, 16)]
ALGORITHMS = ("known_k_full", "known_k_logspace", "unknown")


def test_moves_against_lower_bounds(benchmark):
    rows_raw = benchmark.pedantic(
        quarter_sweep, args=(SIZES, ALGORITHMS), rounds=1, iterations=1
    )
    rows = []
    for row in rows_raw:
        entry = {
            "n": row.ring_size,
            "k": row.agent_count,
            "kn/16 floor": row.quarter_floor,
            "optimal": row.optimal_moves,
        }
        for algorithm in ALGORITHMS:
            entry[f"{algorithm}"] = row.algorithm_moves[algorithm]
            entry[f"{algorithm}/opt"] = round(row.ratio(algorithm), 1)
        rows.append(entry)
    report(
        "E5 Theorem 1 / Fig. 3 - total moves vs Omega(kn) lower bound "
        "(quarter-packed configurations)",
        rows,
        notes="knowledge-of-k algorithms stay within ~8x of the exact optimum; "
        "the relaxed algorithm pays its 14n-per-agent constant",
    )
    for row in rows_raw:
        assert row.optimal_moves >= row.quarter_floor
        for algorithm in ("known_k_full", "known_k_logspace"):
            assert row.ratio(algorithm) <= 12.0
        assert row.ratio("unknown") <= 60.0


def test_time_against_omega_n(benchmark):
    def run():
        return [
            (n, k, run_experiment(algorithm, quarter_packed_placement(n, k)))
            for n, k in SIZES[:2]
            for algorithm in ALGORITHMS
        ]

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {
            "n": n,
            "k": k,
            "algorithm": result.algorithm,
            "ideal_time": result.ideal_time,
            "time/n": round(result.ideal_time / n, 2),
            "uniform": result.ok,
        }
        for n, k, result in measured
    ]
    report(
        "E6 Theorem 2 - ideal time vs the Omega(n) lower bound",
        rows,
        notes="time/n stays within each algorithm's declared ceiling",
    )
    for n, k, result in measured:
        assert result.ok
        assert result.ideal_time >= n // 4  # must at least cross the ring
        bounds = get_algorithm(result.algorithm).bounds
        assert result.ideal_time <= bounds.max_ideal_time(n, k)
