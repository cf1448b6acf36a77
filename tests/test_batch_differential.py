"""Differential-oracle gate: the batch backend vs the object engine.

The columnar engine (:mod:`repro.sim.batch`) promises *byte identity*
with the object engine, not statistical agreement.  These tests hold it
to that on every cell it supports — both full-information algorithms
under the ``sync`` scheduler — at three strictness levels:

* **strict** — identical activation logs, identical full
  :class:`Metrics` (every per-agent dict and counter), identical final
  positions, per shared seeds,
* **payload** — identical archived result payloads through the
  :func:`repro.sim.batch.runner.run_batch` spec-level entry point
  (the representation every store consumer sees), including the
  ``k=1`` and ``n=k`` edge geometries,
* **failure** — a trial that exceeds its step budget raises the same
  exception type with the same message on both engines.

:func:`batch_supported` is pinned too: it declines every other
algorithm and every other scheduler family, which is what routes those
cells to the object engine.

``validate=True`` (the production sampling gate) is exercised both
ways: passing on honest runs and raising :class:`BackendMismatch`
when the oracle is forged to disagree.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    BackendMismatch,
    ConfigurationError,
    SimulationLimitExceeded,
)
from repro.experiments.runner import build_engine, run_experiment
from repro.sim.batch import BatchEngine, batch_supported, run_batch
from repro.sim.batch.runner import validation_sample
from repro.spec import ExperimentSpec, PlacementSpec
from repro.store.records import result_to_payload

#: the batch backend's cells: these algorithms under the sync family.
ALGORITHMS = ("known_k_full", "known_n_full")

DECLINED_ALGORITHMS = ("known_k_logspace", "unknown")

DECLINED_SCHEDULERS = (
    "random",
    "random:seed=3",
    "burst:burst=3",
    "chaos:epoch=5",
    "laggard:victims=0,patience=4",
    "replay:log=0-1-0",
)


def _spec(
    algorithm: str,
    n: int,
    k: int,
    scheduler: str,
    seed: int,
    **overrides,
) -> ExperimentSpec:
    return ExperimentSpec(
        algorithm=algorithm,
        placement=PlacementSpec(
            kind="random", ring_size=n, agent_count=k, seed=seed
        ),
        scheduler=scheduler,
        scheduler_seed=seed ^ 0x5DEECE66D,
        **overrides,
    )


def _batch_engine(specs, **kwargs) -> BatchEngine:
    first = specs[0]
    return BatchEngine(
        algorithm=first.algorithm,
        placements=[spec.build_placement() for spec in specs],
        schedulers=[spec.build_scheduler() for spec in specs],
        max_steps=[spec.max_steps for spec in specs],
        memory_audit_interval=first.memory_audit_interval,
        collect_metrics=first.collect_metrics,
        **kwargs,
    )


def _metrics_tuple(metrics):
    return (
        dict(metrics.moves_per_agent),
        dict(metrics.activations_per_agent),
        dict(metrics.memory_bits_per_agent),
        metrics.messages_sent,
        metrics.messages_delivered,
        metrics.tokens_released,
        metrics.rounds,
    )


@pytest.mark.parametrize(
    "n,k", [(12, 1), (6, 6), (24, 6), (40, 8), (33, 11), (64, 16)]
)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_strict_parity_log_metrics_positions(algorithm, n, k):
    specs = [
        _spec(algorithm, n, k, "sync", seed=100 + trial)
        for trial in range(3)
    ]
    batch = _batch_engine(specs, record_log=True)
    batch.run()
    for trial, spec in enumerate(specs):
        oracle = build_engine(spec)
        oracle.run()
        assert list(batch.activation_log_for(trial)) == list(
            oracle.activation_log
        ), f"{algorithm} trial {trial}: activation logs differ"
        assert _metrics_tuple(batch.metrics_for(trial)) == _metrics_tuple(
            oracle.metrics
        ), f"{algorithm} trial {trial}: metrics differ"
        assert (
            batch.final_positions_for(trial) == oracle.final_positions()
        ), f"{algorithm} trial {trial}: final positions differ"


@pytest.mark.parametrize("n,k", [(12, 1), (6, 6), (16, 4), (25, 5)])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_payload_parity_including_edge_geometries(algorithm, n, k):
    specs = [_spec(algorithm, n, k, "sync", seed=7 + trial) for trial in range(4)]
    results = run_batch(specs)
    for spec, result in zip(specs, results):
        assert result_to_payload(result) == result_to_payload(run_experiment(spec))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_failure_parity_step_budget(algorithm):
    # Ten steps under sync on k=4: two fused rounds fit the budget, the
    # third runs column by column and fails on the exact eleventh action.
    specs = [
        _spec(algorithm, 12, 4, "sync", seed=25, max_steps=10),
        _spec(algorithm, 12, 4, "sync", seed=26),
    ]
    batch = _batch_engine(specs, record_log=True)
    batch.run()
    with pytest.raises(SimulationLimitExceeded) as batch_error:
        batch.result_for(0)
    with pytest.raises(SimulationLimitExceeded) as object_error:
        run_experiment(specs[0])
    assert str(batch_error.value) == str(object_error.value)
    # The failure quarantines its own trial only; the small budget keeps
    # the other trial on the per-column path to the end, in lockstep
    # with the object engine.
    oracle = build_engine(specs[1])
    oracle.run()
    assert list(batch.activation_log_for(1)) == list(oracle.activation_log)
    assert _metrics_tuple(batch.metrics_for(1)) == _metrics_tuple(oracle.metrics)
    assert result_to_payload(batch.result_for(1)) == result_to_payload(
        run_experiment(specs[1])
    )


@pytest.mark.parametrize("n,k", [(12, 1), (24, 6), (64, 16)])
def test_default_step_budget_parity(n, k):
    # With no max_steps given, both engines choose the same budget.
    spec = _spec("known_k_full", n, k, "sync", seed=7)
    assert spec.max_steps is None
    budget = int(_batch_engine([spec]).budget[0])
    assert budget == build_engine(spec)._max_steps == 64 * n * k + 10_000


def test_collect_metrics_off_parity():
    specs = [
        _spec("known_k_full", 20, 5, "sync", seed=s, collect_metrics=False)
        for s in (1, 2, 3)
    ]
    batch = _batch_engine(specs, record_log=True)
    batch.run()
    for trial, spec in enumerate(specs):
        oracle = build_engine(spec)
        oracle.run()
        assert list(batch.activation_log_for(trial)) == list(
            oracle.activation_log
        )
        assert batch.final_positions_for(trial) == oracle.final_positions()
        assert _metrics_tuple(batch.metrics_for(trial)) == _metrics_tuple(
            oracle.metrics
        )  # both empty: disabled collection is disabled on both engines
        assert batch.metrics_for(trial).total_activations == 0


def test_memory_audit_interval_parity():
    specs = [
        _spec("known_n_full", 18, 6, "sync", seed=s, memory_audit_interval=5)
        for s in (4, 5)
    ]
    results = run_batch(specs)
    for spec, result in zip(specs, results):
        assert result_to_payload(result) == result_to_payload(
            run_experiment(spec)
        )


def test_validate_gate_passes_on_honest_runs():
    specs = [_spec("known_n_full", 16, 4, "sync", seed=s) for s in range(4)]
    run_batch(specs, validate=True)  # must not raise


def test_validate_gate_raises_on_forged_oracle(monkeypatch):
    import repro.experiments.runner as runner_module

    specs = [_spec("known_k_full", 16, 4, "sync", seed=s) for s in range(3)]
    honest = run_batch(specs)

    def forged(spec):
        import dataclasses

        return dataclasses.replace(
            honest[0], total_moves=honest[0].total_moves + 1
        )

    monkeypatch.setattr(runner_module, "run_experiment", forged)
    with pytest.raises(BackendMismatch):
        run_batch(specs, validate=True)


def test_validation_sample_covers_boundaries():
    assert validation_sample(0) == []
    assert validation_sample(1) == [0]
    assert validation_sample(2) == [0, 1]
    sample = validation_sample(100, samples=3)
    assert sample[0] == 0 and sample[-1] == 99 and len(sample) == 3
    # Deterministic: same inputs, same indices, every call.
    assert validation_sample(100, samples=3) == sample


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_batch_supported_takes_full_kernels_under_sync(algorithm):
    assert batch_supported(_spec(algorithm, 12, 3, "sync", seed=1)) is None


@pytest.mark.parametrize("algorithm", DECLINED_ALGORITHMS)
def test_batch_supported_declines_other_algorithms(algorithm):
    reason = batch_supported(_spec(algorithm, 12, 3, "sync", seed=1))
    assert reason is not None and algorithm in reason


@pytest.mark.parametrize("scheduler", DECLINED_SCHEDULERS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_batch_supported_declines_non_sync_families(algorithm, scheduler):
    reason = batch_supported(_spec(algorithm, 12, 3, scheduler, seed=1))
    assert reason is not None and "sync" in reason


def test_run_batch_refuses_declined_specs():
    with pytest.raises(ConfigurationError, match="not batchable"):
        run_batch([_spec("known_k_full", 12, 3, "random", seed=1)])


def test_batch_engine_refuses_non_sync_schedulers():
    spec = _spec("known_k_full", 12, 3, "random", seed=1)
    with pytest.raises(ConfigurationError, match="synchronous"):
        _batch_engine([spec])
