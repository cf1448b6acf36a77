"""Head-to-head comparison of all registered algorithms (one placement).

Running every algorithm on the same initial configuration shows the
Table 1 trade-offs concretely: Algorithm 1 is time-optimal but pays
O(k log n) memory; the log-space algorithm trades a log k time factor
for O(log n) memory; the relaxed algorithm needs no knowledge but pays
the 14n-per-agent constant (and cannot detect termination).  The
omniscient optimum anchors the move column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.baselines.optimal import optimal_uniform_plan
from repro.experiments.runner import RunResult, run_experiment
from repro.registry import algorithm_names
from repro.ring.placement import Placement
from repro.sim.scheduler import Scheduler

__all__ = ["AlgorithmComparison", "compare_algorithms"]


@dataclass(frozen=True)
class AlgorithmComparison:
    """All algorithms' results on one placement, plus the optimum."""

    placement: Placement
    optimal_moves: int
    results: Dict[str, RunResult]

    @property
    def all_uniform(self) -> bool:
        return all(result.ok for result in self.results.values())

    def rows(self) -> List[Dict[str, object]]:
        """One table row per algorithm, ready for ``format_rows``."""
        rows = []
        for name in sorted(self.results):
            result = self.results[name]
            rows.append(
                {
                    "algorithm": name,
                    "moves": result.total_moves,
                    "moves/optimal": (
                        round(result.total_moves / self.optimal_moves, 1)
                        if self.optimal_moves
                        else "-"
                    ),
                    "ideal_time": result.ideal_time,
                    "memory_bits": result.max_memory_bits,
                    "messages": result.messages_sent,
                    "uniform": result.ok,
                }
            )
        return rows

    def winner(self, metric: str) -> str:
        """Algorithm with the smallest value of ``metric`` (row key)."""
        rows = {row["algorithm"]: row for row in self.rows()}
        return min(
            rows,
            key=lambda name: (
                rows[name][metric] if isinstance(rows[name][metric], int) else 1 << 62
            ),
        )


def compare_algorithms(
    placement: Placement,
    algorithms: Optional[Sequence[str]] = None,
    scheduler_factory=None,
    memory_audit_interval: int = 1,
) -> AlgorithmComparison:
    """Run each algorithm on ``placement`` and bundle the outcomes.

    ``scheduler_factory`` maps an algorithm name to a fresh scheduler
    (default: a fresh synchronous scheduler each, so ideal times are
    comparable).
    """
    names = list(algorithms) if algorithms is not None else algorithm_names()
    results = {}
    for name in names:
        scheduler: Optional[Scheduler] = (
            scheduler_factory(name) if scheduler_factory else None
        )
        results[name] = run_experiment(
            name,
            placement,
            scheduler=scheduler,
            memory_audit_interval=memory_audit_interval,
        )
    plan = optimal_uniform_plan(placement)
    return AlgorithmComparison(
        placement=placement, optimal_moves=plan.total_moves, results=results
    )
