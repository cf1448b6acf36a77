"""One-call experiment runner shared by tests, examples and benchmarks.

:func:`run_experiment` builds the engine for a placement and an
algorithm, runs it to quiescence, verifies uniform deployment with the
right terminal-state requirement, and returns a :class:`RunResult`
bundling the metrics and the verification report.

Both :func:`run_experiment` and :func:`build_engine` accept either the
classic ``(algorithm_name, placement, **kwargs)`` form or a single
declarative :class:`repro.spec.ExperimentSpec` — the serialized-spec
path and the kwargs path produce byte-identical executions (pinned by
``tests/test_spec.py``).

Algorithm metadata lives in :mod:`repro.registry`
(:func:`~repro.registry.algorithm_names`,
:func:`~repro.registry.get_algorithm`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a module cycle
    from repro.store.records import RunRecord

from repro.analysis.verification import VerificationReport, verify_uniform_deployment
from repro.errors import ConfigurationError
from repro.registry import build_scheduler, get_algorithm
from repro.ring.faults import LinkSpec
from repro.ring.placement import Placement
from repro.sim.agent import Agent
from repro.sim.engine import Engine
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceRecorder
from repro.spec import ExperimentSpec

__all__ = ["RunResult", "build_agents", "build_engine", "run_experiment"]


@dataclass(frozen=True)
class RunResult:
    """Everything one experiment run produced."""

    algorithm: str
    placement: Placement
    scheduler: str
    total_moves: int
    max_moves: int
    ideal_time: Optional[int]
    max_memory_bits: int
    messages_sent: int
    report: VerificationReport
    final_positions: Tuple[int, ...]

    @property
    def ok(self) -> bool:
        """True when the run achieved uniform deployment."""
        return self.report.ok

    def row(self) -> Dict[str, object]:
        """Flat row for benchmark tables and EXPERIMENTS.md."""
        return {
            "algorithm": self.algorithm,
            "n": self.placement.ring_size,
            "k": self.placement.agent_count,
            "l": self.placement.symmetry_degree,
            "scheduler": self.scheduler,
            "total_moves": self.total_moves,
            "max_moves": self.max_moves,
            "ideal_time": self.ideal_time,
            "max_memory_bits": self.max_memory_bits,
            "messages": self.messages_sent,
            "uniform": self.report.ok,
        }

    def to_record(self, spec: Optional[ExperimentSpec] = None) -> "RunRecord":
        """The canonical archived form of this run (see :mod:`repro.store`).

        With ``spec`` the record is content-addressed by the spec's hash
        — the key :class:`~repro.store.jsonl.RunStore` memoises on.
        Without one (legacy flat-file archives) the hash is derived from
        the result payload itself, so the record is still addressable.
        """
        from repro.store.records import (
            RunRecord,
            payload_hash,
            result_to_payload,
        )

        payload = result_to_payload(self)
        if spec is not None:
            if spec.algorithm != self.algorithm:
                raise ConfigurationError(
                    f"spec algorithm {spec.algorithm!r} does not match "
                    f"result algorithm {self.algorithm!r}"
                )
            return RunRecord(
                content_hash=spec.content_hash(),
                result=payload,
                spec=spec.to_dict(),
            )
        return RunRecord(content_hash=payload_hash(payload), result=payload)

    @classmethod
    def from_record(cls, record: "RunRecord") -> "RunResult":
        """Rebuild the :class:`RunResult` a record archived.

        Inverse of :meth:`to_record` up to the spec/env envelope: the
        returned value equals the originally computed result (metrics,
        final positions, verification report) field for field.
        """
        from repro.store.records import result_from_payload

        return result_from_payload(record.result)


def _reject_spec_overrides(caller: str, **values) -> None:
    """Fail loudly when spec calls also pass engine-option kwargs.

    A spec carries its own engine options; silently discarding an
    explicit ``max_steps=...`` (etc.) would drop the caller's limits.
    Each value is compared against the signature default — passing the
    default explicitly is indistinguishable from omitting it, which is
    harmless because the spec then decides, exactly as documented.
    """
    conflicting = sorted(
        name for name, (value, default) in values.items() if value != default
    )
    if conflicting:
        raise ConfigurationError(
            f"{caller}(spec) carries its own engine options; move "
            f"{conflicting} into the spec (ExperimentSpec.with_options) "
            f"instead of passing them alongside it"
        )


def build_agents(
    algorithm: str, agent_count: int, ring_size: int = 0
) -> Tuple[Agent, ...]:
    """Instantiate one agent per home for a registered algorithm.

    ``ring_size`` is required only by knowledge-of-n algorithms; the
    knowledge-of-k and no-knowledge factories ignore it.  Self-test
    algorithms (``wake_race``) resolve here too — they are hidden only
    from experiment-facing listings.
    """
    return get_algorithm(algorithm).make_agents(agent_count, ring_size)


def build_engine(
    algorithm: Union[str, ExperimentSpec],
    placement: Optional[Placement] = None,
    scheduler: Optional[Scheduler] = None,
    trace: Optional[TraceRecorder] = None,
    memory_audit_interval: int = 16,
    max_steps: Optional[int] = None,
    collect_metrics: bool = True,
    validate_enabledness: bool = False,
    record_views: bool = False,
    links: Optional[LinkSpec] = None,
) -> Engine:
    """Build an engine wired with fresh agents for ``algorithm``.

    ``algorithm`` may be a registered name plus a ``placement`` (the
    classic form) or a single :class:`~repro.spec.ExperimentSpec`
    carrying the placement, scheduler and engine options itself (an
    explicit ``scheduler``/``trace`` argument still wins, so replays
    and recordings compose with specs).

    ``collect_metrics=False`` makes the run a pure-throughput measurement
    (the metrics object stays empty); ``validate_enabledness=True`` runs
    the O(k) enabled-set oracle after every batch as a differential
    check against the incremental set; ``record_views=True`` logs every
    agent view so the engine supports copy-on-branch ``fork()`` (the
    model checker needs this); ``links`` injects a
    :class:`~repro.ring.faults.LinkSpec` (faulty delivery on every
    link — specs carry their own via ``spec.links``).
    """
    if isinstance(algorithm, ExperimentSpec):
        spec = algorithm
        if placement is not None:
            raise ConfigurationError(
                "build_engine(spec) carries its own placement; do not pass one"
            )
        _reject_spec_overrides(
            "build_engine",
            memory_audit_interval=(memory_audit_interval, 16),
            max_steps=(max_steps, None),
            collect_metrics=(collect_metrics, True),
            validate_enabledness=(validate_enabledness, False),
            record_views=(record_views, False),
            links=(links, None),
        )
        algorithm = spec.algorithm
        placement = spec.build_placement()
        scheduler = scheduler or spec.build_scheduler()
        memory_audit_interval = spec.memory_audit_interval
        max_steps = spec.max_steps
        collect_metrics = spec.collect_metrics
        validate_enabledness = spec.validate_enabledness
        record_views = spec.record_views
        links = spec.links
    elif placement is None:
        raise ConfigurationError(
            "build_engine(name, placement) requires a placement "
            "(or pass an ExperimentSpec)"
        )
    agents = build_agents(algorithm, placement.agent_count, placement.ring_size)
    return Engine(
        placement=placement,
        agents=agents,
        scheduler=scheduler or build_scheduler("sync"),
        trace=trace,
        memory_audit_interval=memory_audit_interval,
        max_steps=max_steps,
        collect_metrics=collect_metrics,
        validate_enabledness=validate_enabledness,
        record_views=record_views,
        links=links,
    )


def run_experiment(
    algorithm: Union[str, ExperimentSpec],
    placement: Optional[Placement] = None,
    scheduler: Optional[Scheduler] = None,
    trace: Optional[TraceRecorder] = None,
    memory_audit_interval: int = 16,
    max_steps: Optional[int] = None,
    validate_enabledness: bool = False,
    links: Optional[LinkSpec] = None,
) -> RunResult:
    """Run ``algorithm`` on ``placement`` to quiescence and verify it.

    Accepts either the classic ``(name, placement, **kwargs)`` form or a
    single declarative :class:`~repro.spec.ExperimentSpec`; the two
    forms produce byte-identical executions for equivalent inputs.
    """
    if isinstance(algorithm, ExperimentSpec):
        spec = algorithm
        if placement is not None:
            raise ConfigurationError(
                "run_experiment(spec) carries its own placement; do not pass one"
            )
        _reject_spec_overrides(
            "run_experiment",
            memory_audit_interval=(memory_audit_interval, 16),
            max_steps=(max_steps, None),
            validate_enabledness=(validate_enabledness, False),
            links=(links, None),
        )
        engine = build_engine(spec, scheduler=scheduler, trace=trace)
        name = spec.algorithm
    else:
        if placement is None:
            raise ConfigurationError(
                "run_experiment(name, placement) requires a placement "
                "(or pass an ExperimentSpec)"
            )
        engine = build_engine(
            algorithm,
            placement,
            scheduler=scheduler,
            trace=trace,
            memory_audit_interval=memory_audit_interval,
            max_steps=max_steps,
            validate_enabledness=validate_enabledness,
            links=links,
        )
        name = algorithm
    metrics = engine.run()
    halts = get_algorithm(name).halts
    report = verify_uniform_deployment(
        engine, require_halted=halts, require_suspended=not halts
    )
    faults = engine.ring.faults
    if faults is None:
        positions = tuple(sorted(engine.final_positions().values()))
    else:
        # Lost agents have no position; report the survivors' nodes (at
        # quiescence every survivor is staying — a queued or buffered
        # agent would keep some actor enabled).
        positions = tuple(
            sorted(
                node
                for agent_id in engine.agent_ids
                if agent_id not in faults.lost
                for kind, node in (engine.ring.locate(agent_id),)
                if kind == "node"
            )
        )
    return RunResult(
        algorithm=name,
        placement=engine.placement,
        scheduler=engine.scheduler.describe(),
        total_moves=metrics.total_moves,
        max_moves=metrics.max_moves,
        ideal_time=metrics.rounds,
        max_memory_bits=metrics.max_memory_bits,
        messages_sent=metrics.messages_sent,
        report=report,
        final_positions=positions,
    )
