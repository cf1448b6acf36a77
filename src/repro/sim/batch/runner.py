"""Spec-level entry point for the batch backend.

:func:`batch_supported` is the one rule for which specs the batch
backend takes: the two full-information kernels under the ``sync``
scheduler family, where it beats the object engine at large batch
sizes.  Every other spec runs on the object engine.

:func:`run_batch` is the columnar counterpart of calling
:func:`repro.experiments.runner.run_experiment` once per spec: it takes
a homogeneous list of supported :class:`~repro.spec.ExperimentSpec`
(same algorithm, same (n, k), same engine options — one sweep cell),
executes all of them as a single
:class:`~repro.sim.batch.engine.BatchEngine` batch, and returns the
per-trial :class:`RunResult` objects in input order.  Because each
trial gets its own placement and its own scheduler instance built by
the spec itself, the results are byte-identical to the serial
object-engine runs for the same specs — the property
``validate=True`` spot-checks on a deterministic sample of trials by
actually running the object engine and comparing archived payloads
(raising :class:`~repro.errors.BackendMismatch` on any difference).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import BackendMismatch, ConfigurationError
from repro.registry import parse_scheduler_spec
from repro.sim.batch.engine import BatchEngine
from repro.sim.batch.kernels import KERNELS

__all__ = ["batch_supported", "run_batch", "validation_sample"]


def batch_supported(spec) -> Optional[str]:
    """Why ``spec`` cannot run on the batch backend, or ``None`` if it can.

    The batch backend covers ``known_k_full`` and ``known_n_full`` under
    the ``sync`` scheduler family; every other cell is slower batched
    than on the object engine.  Specs with link faults, per-agent view
    logs (``record_views``) or the enabled-set self-check
    (``validate_enabledness``) stay on the object engine too — those
    knobs are about the object engine's own internals.
    """
    if spec.algorithm not in KERNELS:
        return f"algorithm {spec.algorithm!r} has no batch kernel"
    if parse_scheduler_spec(spec.scheduler).name != "sync":
        return f"scheduler {spec.scheduler!r} is not the sync family"
    if spec.links is not None:
        return "link faults require the object engine"
    if spec.record_views:
        return "record_views requires the object engine"
    if spec.validate_enabledness:
        return "validate_enabledness requires the object engine"
    return None


def validation_sample(trials: int, samples: int = 3) -> List[int]:
    """Deterministic evenly spaced trial indices for the sampling gate.

    Always includes the first and last trial (when ``trials > 1``), so
    boundary trials — the likeliest to catch indexing bugs — are always
    cross-checked.
    """
    if trials <= 0 or samples <= 0:
        return []
    count = min(samples, trials)
    if count == 1:
        return [0]
    span = trials - 1
    return sorted({round(i * span / (count - 1)) for i in range(count)})


def run_batch(
    specs: Sequence["ExperimentSpec"],
    validate: bool = False,
    validate_samples: int = 3,
    record_log: bool = False,
) -> List["RunResult"]:
    """Run one cell's trials on the batch backend, in input order.

    ``validate=True`` re-runs a :func:`validation_sample` of the specs
    on the object engine and compares the archived result payloads —
    the differential-oracle gate for production sweeps.
    """
    if not specs:
        return []
    first = specs[0]
    for spec in specs:
        reason = batch_supported(spec)
        if reason is not None:
            raise ConfigurationError(f"spec is not batchable: {reason}")
        if spec.algorithm != first.algorithm:
            raise ConfigurationError(
                "one batch runs one algorithm; got "
                f"{spec.algorithm!r} and {first.algorithm!r}"
            )
        if spec.memory_audit_interval != first.memory_audit_interval:
            raise ConfigurationError(
                "all trials of one batch must share memory_audit_interval"
            )
        if spec.collect_metrics != first.collect_metrics:
            raise ConfigurationError(
                "all trials of one batch must share collect_metrics"
            )
    engine = BatchEngine(
        algorithm=first.algorithm,
        placements=[spec.build_placement() for spec in specs],
        schedulers=[spec.build_scheduler() for spec in specs],
        max_steps=[spec.max_steps for spec in specs],
        memory_audit_interval=first.memory_audit_interval,
        collect_metrics=first.collect_metrics,
        record_log=record_log,
    )
    engine.run()
    results = [engine.result_for(trial) for trial in range(len(specs))]
    if validate:
        _validate_against_oracle(specs, results, validate_samples)
    return results


def _validate_against_oracle(
    specs: Sequence["ExperimentSpec"],
    results: Sequence["RunResult"],
    samples: int,
) -> None:
    """Re-run sampled trials on the object engine; compare payloads."""
    from repro.experiments.runner import run_experiment
    from repro.store.records import result_to_payload

    for trial in validation_sample(len(specs), samples):
        oracle = run_experiment(specs[trial])
        expected = result_to_payload(oracle)
        actual = result_to_payload(results[trial])
        if expected != actual:
            diverging = sorted(
                key
                for key in set(expected) | set(actual)
                if expected.get(key) != actual.get(key)
            )
            raise BackendMismatch(
                f"batch backend diverged from the object engine on trial "
                f"{trial} ({specs[trial].algorithm}, "
                f"n={results[trial].placement.ring_size}, "
                f"k={results[trial].placement.agent_count}, "
                f"scheduler={results[trial].scheduler}): "
                f"fields {diverging} differ"
            )
