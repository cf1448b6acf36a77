"""Multi-trial experiment statistics (seeded aggregation).

Single runs are deterministic given a placement and a scheduler seed,
but Table 1 claims hold over *distributions* of initial configurations.
:func:`aggregate_trials` runs one algorithm over many seeded random
placements (optionally many scheduler seeds each) and reports
mean / min / max / stdev per metric, so benchmark tables can show
variation rather than single draws.

Trials are content-addressed: pass ``store=RunStore(dir)`` and every
trial whose spec is already archived is served from the store instead
of re-simulated (the placements are declarative, so the aggregate over
archived runs equals the aggregate over fresh ones).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.runner import RunResult
from repro.ring.placement import random_placement
from repro.spec import ExperimentSpec
from repro.store import RunStore, cached_run

__all__ = ["MetricSummary", "TrialAggregate", "aggregate_trials"]


@dataclass(frozen=True)
class MetricSummary:
    """Mean / spread of one metric across trials."""

    mean: float
    minimum: float
    maximum: float
    stdev: float

    @staticmethod
    def of(values: Sequence[float]) -> "MetricSummary":
        if not values:
            raise ConfigurationError("cannot summarise zero values")
        mean = sum(values) / len(values)
        if len(values) == 1:
            spread = 0.0
        else:
            spread = math.sqrt(
                sum((value - mean) ** 2 for value in values) / (len(values) - 1)
            )
        return MetricSummary(
            mean=mean, minimum=min(values), maximum=max(values), stdev=spread
        )

    def describe(self, digits: int = 1) -> str:
        return (
            f"{self.mean:.{digits}f} "
            f"[{self.minimum:.{digits}f}..{self.maximum:.{digits}f}] "
            f"(sd {self.stdev:.{digits}f})"
        )


@dataclass(frozen=True)
class TrialAggregate:
    """All trials of one (algorithm, n, k) cell."""

    algorithm: str
    ring_size: int
    agent_count: int
    trials: int
    all_uniform: bool
    total_moves: MetricSummary
    ideal_time: Optional[MetricSummary]
    max_memory_bits: MetricSummary
    results: Sequence[RunResult]

    def row(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "n": self.ring_size,
            "k": self.agent_count,
            "trials": self.trials,
            "moves": self.total_moves.describe(0),
            "time": self.ideal_time.describe(0) if self.ideal_time else "-",
            "memory_bits": self.max_memory_bits.describe(0),
            "uniform": self.all_uniform,
        }


def aggregate_trials(
    algorithm: str,
    ring_size: int,
    agent_count: int,
    trials: int = 5,
    seed: int = 0,
    memory_audit_interval: int = 16,
    scheduler_spec: Optional[str] = None,
    store: Optional[RunStore] = None,
) -> TrialAggregate:
    """Run ``trials`` seeded random placements and summarise the metrics.

    The default scheduler is the synchronous one (so ideal time is
    measured).  A ``scheduler_spec`` string such as ``"random"`` samples
    asynchronous executions, the trial index filling its unpinned seed
    parameters.  With ``store=`` given, each trial spec's content hash
    is looked up first and only missing trials are simulated.
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    rng = random.Random(seed)
    results: List[RunResult] = []
    for index in range(trials):
        placement = random_placement(ring_size, agent_count, rng)
        spec = ExperimentSpec.for_placement(
            algorithm,
            placement,
            scheduler=scheduler_spec or "sync",
            scheduler_seed=index,
            memory_audit_interval=memory_audit_interval,
        )
        results.append(cached_run(spec, store)[0])
    times = [result.ideal_time for result in results]
    return TrialAggregate(
        algorithm=algorithm,
        ring_size=ring_size,
        agent_count=agent_count,
        trials=trials,
        all_uniform=all(result.ok for result in results),
        total_moves=MetricSummary.of([result.total_moves for result in results]),
        ideal_time=(
            MetricSummary.of([t for t in times]) if all(t is not None for t in times) else None
        ),
        max_memory_bits=MetricSummary.of(
            [result.max_memory_bits for result in results]
        ),
        results=tuple(results),
    )
