"""Multi-trial Table 1 rows with spread (mean [min..max] over placements).

Single draws can mislead; this bench repeats each (algorithm, n, k)
cell over several seeded random placements and reports the spread,
confirming the Table 1 envelopes hold across the distribution and not
just for one lucky configuration.  Async trials (random scheduler)
re-check that move totals are schedule-independent for the
deterministic algorithms.
"""

from __future__ import annotations

from repro.experiments.statistics import aggregate_trials

from benchmarks.conftest import report

CELLS = [(96, 8), (192, 8), (192, 16)]
TRIALS = 5


def test_multi_trial_spread(benchmark):
    def run():
        rows = []
        for algorithm in ("known_k_full", "known_k_logspace", "unknown"):
            for n, k in CELLS:
                rows.append(aggregate_trials(algorithm, n, k, trials=TRIALS, seed=17))
        return rows

    aggregates = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        f"Statistics - Table 1 cells over {TRIALS} random placements "
        "(mean [min..max] (sd))",
        [aggregate.row() for aggregate in aggregates],
        notes="all-uniform across every trial; spreads stay inside the "
        "O-bounds (3kn / 4kn / 14kn moves respectively)",
    )
    for aggregate in aggregates:
        assert aggregate.all_uniform
        bound = {"known_k_full": 3, "known_k_logspace": 4, "unknown": 14}[
            aggregate.algorithm
        ]
        assert aggregate.total_moves.maximum <= (
            bound * aggregate.agent_count * aggregate.ring_size
        )


def test_async_trials_match_sync_moves(benchmark):
    def run():
        sync = aggregate_trials("known_k_full", 96, 8, trials=3, seed=4)
        asynchronous = aggregate_trials(
            "known_k_full",
            96,
            8,
            trials=3,
            seed=4,
            scheduler_spec="random",
        )
        return sync, asynchronous

    sync, asynchronous = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "Statistics - schedule independence of Algorithm 1 move totals",
        [
            {"schedule": "synchronous", **{k: v for k, v in sync.row().items() if k != "algorithm"}},
            {"schedule": "random-async", **{k: v for k, v in asynchronous.row().items() if k != "algorithm"}},
        ],
    )
    assert sync.total_moves == asynchronous.total_moves
