"""Per-layer metrics of a traced run, and the batch-vs-object matrix.

Every metric is computed on every workload; a layer a workload does not
load reports 0 (for example ``batch.*`` outside ``sweep_batch``).  Call
counts and self times sum over the measured phases of the fully traced
pass; the ratios name the phase they are taken on.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional

#: Per-layer metric -> unit.
PER_LAYER = {
    "sweep.pool_busy_frac": "frac",
    "sweep.parent_wait_s": "s",
    "runner.run_experiment.calls": "count",
    "runner.run_experiment.self_s": "s",
    "engine.run.self_s": "s",
    "engine.step.calls": "count",
    "engine.step.self_s": "s",
    "engine.fork.calls": "count",
    "engine.fork.self_s": "s",
    "engine.snapshot.calls": "count",
    "engine.snapshot.self_s": "s",
    "scheduler.next_batch.calls": "count",
    "scheduler.next_batch.self_s": "s",
    "agent.act.calls": "count",
    "agent.act.self_s": "s",
    "batch.run_batch.calls": "count",
    "batch.run_batch.self_s": "s",
    "batch.trials_per_call": "count",
    "batch.declined_cells": "count",
    "batch.win_frac": "frac",
    "configuration.canonical.calls": "count",
    "configuration.canonical.self_s": "s",
    "configuration.packed_layout.calls": "count",
    "configuration.packed_layout.self_s": "s",
    "configuration.packed_per_state": "count",
    "por.self_s": "s",
    "properties.check.self_s": "s",
    "mc.dedup_ratio": "frac",
    "spill.engine_steps_per_transition": "count",
    "spill.worker_busy_frac": "frac",
    "spill.append_wave.calls": "count",
    "spill.append_wave.self_s": "s",
    "spill.append_wave.bytes": "B",
    "coverage.observe.calls": "count",
    "coverage.observe.self_s": "s",
    "coverage.novel_frac": "frac",
    "mutate.self_s": "s",
    "shrink.evals": "count",
    "shrink.self_s": "s",
    "store.put.calls": "count",
    "store.put.self_s": "s",
    "store.get_many.self_s": "s",
    "store.query.self_s": "s",
    "store.count.self_s": "s",
    "store.refresh.self_s": "s",
    "serve.handle.calls": "count",
    "serve.handle.self_s": "s",
    "serve.http_overhead_ms": "ms",
    "trace.overhead_frac": "frac",
}

#: Phases whose spans the per-layer sums cover; set-up and the
#: benchmark's own checks (expected counts, reference sweeps) are out.
MEASURED = ("cold", "warm", "http", "mc", "spill", "fuzz")

#: Span name -> the metrics reporting its calls and self time.
_CALLS_AND_SELF = {
    "runner.run_experiment": ("calls", "self_s"),
    "engine.run": ("self_s",),
    "engine.step": ("calls", "self_s"),
    "engine.fork": ("calls", "self_s"),
    "engine.snapshot": ("calls", "self_s"),
    "scheduler.next_batch": ("calls", "self_s"),
    "agent.act": ("calls", "self_s"),
    "batch.run_batch": ("calls", "self_s"),
    "configuration.canonical": ("calls", "self_s"),
    "configuration.packed_layout": ("calls", "self_s"),
    "por": ("self_s",),
    "properties.check": ("self_s",),
    "spill.append_wave": ("calls", "self_s"),
    "coverage.observe": ("calls", "self_s"),
    "mutate": ("self_s",),
    "shrink": ("self_s",),
    "store.put": ("calls", "self_s"),
    "store.get_many": ("self_s",),
    "store.query": ("self_s",),
    "store.count": ("self_s",),
    "store.refresh": ("self_s",),
    "serve.handle": ("calls", "self_s"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _sum(table: dict, name: str, column: int, phases: Iterable[str] = MEASURED) -> float:
    return sum(table.get((phase, name), (0, 0.0, 0.0))[column] for phase in phases)


def layer_metrics(tracer, run, light_seconds: float, matrix: List[dict]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from the fully traced pass ``run``."""
    everywhere = tracer.totals()
    workers = tracer.totals("workers")
    counters = tracer.counters
    metrics: Dict[str, float] = {}
    for name, columns in _CALLS_AND_SELF.items():
        for column in columns:
            metrics[f"{name}.{column}"] = _sum(
                everywhere, name, 0 if column == "calls" else 2
            )

    def counter(name: str, phases: Iterable[str] = MEASURED) -> float:
        return sum(counters.get((phase, name), 0) for phase in phases)

    metrics["sweep.pool_busy_frac"] = _ratio(
        _sum(workers, "runner.run_experiment", 1, ("cold",)),
        run.processes * run.facts["cold_seconds"],
    )
    metrics["sweep.parent_wait_s"] = _sum(everywhere, "pool.wait", 1, ("cold",))

    batch_spans = [
        span for span in tracer.spans
        if span["name"] == "batch.run_batch" and span["phase"] == "cold"
    ]
    metrics["batch.trials_per_call"] = _ratio(
        sum(span["attrs"]["trials"] for span in batch_spans), len(batch_spans)
    )
    metrics["batch.declined_cells"] = counter("batch.declined_cells", ("cold",))
    batch_trials = sum(row["batch_trials"] for row in matrix)
    metrics["batch.win_frac"] = _ratio(
        sum(row["batch_wins"] for row in matrix), batch_trials
    )

    mc_results = run.facts["mc_results"]
    spill = run.facts["spill_result"]
    metrics["configuration.packed_per_state"] = _ratio(
        _sum(everywhere, "configuration.packed_layout", 0, ("mc", "spill")),
        sum(result.explored for result in mc_results) + spill.explored,
    )
    metrics["mc.dedup_ratio"] = _ratio(
        sum(result.deduped for result in mc_results),
        sum(result.transitions for result in mc_results),
    )
    metrics["spill.engine_steps_per_transition"] = _ratio(
        _sum(everywhere, "engine.step", 0, ("spill",)), spill.transitions
    )
    metrics["spill.worker_busy_frac"] = _ratio(
        _sum(workers, "spill.task", 1, ("spill",)),
        run.processes * _sum(everywhere, "mc.check_frontier", 1, ("spill",)),
    )
    metrics["spill.append_wave.bytes"] = counter("spill.append_wave.bytes", ("spill",))
    metrics["coverage.novel_frac"] = _ratio(
        counter("coverage.novel"), metrics["coverage.observe.calls"]
    )
    metrics["shrink.evals"] = counter("shrink.evals")

    latencies = run.facts["http_latencies"]
    handle_calls = _sum(everywhere, "serve.handle", 0, ("http",))
    metrics["serve.http_overhead_ms"] = 1000 * (
        statistics.fmean(latencies)
        - _ratio(_sum(everywhere, "serve.handle", 1, ("http",)), handle_calls)
    )
    metrics["trace.overhead_frac"] = _ratio(run.unit_seconds, light_seconds) - 1
    return metrics


def batch_matrix(spans: List[dict]) -> List[dict]:
    """Seconds per trial of each backend per (algorithm, scheduler, n).

    Object times are the ``run_experiment`` spans of the cold sweep or
    of the object reference sweep; batch times are the ``run_batch``
    group spans divided by the group's trials.  A batch trial wins when
    its group's seconds per trial beat the object engine's time on that
    same cell.
    """
    cells: Dict[tuple, List[float]] = {}
    groups: Dict[tuple, List[float]] = {}
    for span in spans:
        if span["phase"] not in ("cold", "reference"):
            continue
        attrs = span["attrs"]
        if span["name"] == "runner.run_experiment":
            key = (attrs["algorithm"], attrs["scheduler"], attrs["n"])
            cells.setdefault(key, []).append(span["end"] - span["start"])
        elif span["name"] == "batch.run_batch":
            key = (attrs["algorithm"], attrs["scheduler"], attrs["n"])
            entry = groups.setdefault(key, [0.0, 0])
            entry[0] += span["end"] - span["start"]
            entry[1] += attrs["trials"]
    rows = []
    for key in sorted(set(cells) | set(groups)):
        algorithm, scheduler, n = key
        object_times = cells.get(key, [])
        object_spt: Optional[float] = (
            statistics.fmean(object_times) if object_times else None
        )
        batch_spt: Optional[float] = None
        trials = wins = 0
        if key in groups:
            seconds, trials = groups[key]
            batch_spt = seconds / trials
            if object_times:
                wins = round(
                    trials * sum(t > batch_spt for t in object_times) / len(object_times)
                )
        rows.append(
            {
                "algorithm": algorithm,
                "scheduler": scheduler,
                "n": n,
                "object_s_per_trial": object_spt,
                "batch_s_per_trial": batch_spt,
                "speedup": (
                    object_spt / batch_spt if object_spt and batch_spt else None
                ),
                "batch_trials": trials if object_times else 0,
                "batch_wins": wins,
            }
        )
    return rows


def format_matrix(rows: List[dict]) -> List[str]:
    def cell(value: Optional[float], spec: str) -> str:
        return "-" if value is None else format(value, spec)

    lines = [
        f"{'algorithm':<18}{'scheduler':<10}{'n':>5}"
        f"{'object s/trial':>16}{'batch s/trial':>16}{'speedup':>9}"
    ]
    for row in rows:
        lines.append(
            f"{row['algorithm']:<18}{row['scheduler']:<10}{row['n']:>5}"
            f"{cell(row['object_s_per_trial'], '.6f'):>16}"
            f"{cell(row['batch_s_per_trial'], '.6f'):>16}"
            f"{cell(row['speedup'], '.2f'):>9}"
        )
    return lines
