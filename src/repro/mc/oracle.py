"""Shared property oracles: one bundle, checked online, any driver.

The exhaustive checker, the counterexample replayer and the schedule
fuzzer all need the same thing: "run this instance one atomic action at
a time and tell me the moment a property breaks".  This module factors
that out of :mod:`repro.mc.checker`: the exhaustive search
(``check_interleavings`` / ``check_frontier``), the counterexample
replayer and the randomized drivers all take their property suites and
engines from here, so every driver checks exactly the same oracles:

* :class:`Violation` — one property failure, as plain data (kind,
  property name, message) without the schedule attached, so drivers can
  pair it with whatever execution context they hold,
* :class:`PropertyOracle` — the safety + terminal property suites of
  one ``(algorithm, placement)`` instance (the only place the default
  suites are resolved), with engine construction (including the
  ``factory`` injection hook the self-tests use) and a cached root
  engine for cheap :meth:`~repro.sim.engine.Engine.fork`-based replays,
* :func:`drive_schedule` — replay a recorded schedule with exactly
  :class:`~repro.sim.scheduler.ReplayScheduler` semantics (disabled
  entries skipped permanently, lowest-id enabled fallback after
  exhaustion) while checking every property on every step.

``drive_schedule`` is the oracle the delta-debugging shrinker
(:mod:`repro.mc.shrink`) minimises against, and the final arbiter of
"does this schedule still reproduce the violation".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.mc.properties import (
    SafetyProperty,
    TerminalProperty,
    default_safety_properties,
    resolve_terminal,
)
from repro.ring.faults import LinkSpec
from repro.ring.placement import Placement
from repro.sim.agent import Agent
from repro.sim.engine import Engine

__all__ = ["Violation", "PropertyOracle", "ReplayOutcome", "drive_schedule"]

AgentsFactory = Callable[[], Sequence[Agent]]


@dataclass(frozen=True)
class Violation:
    """One property failure observed by an oracle-checked driver."""

    kind: str  # "safety", "terminal" or (from the exhaustive search) "cycle"
    property_name: str
    message: str

    def describe(self) -> str:
        return f"[{self.kind}:{self.property_name}] {self.message}"

    def same_defect(self, other: Optional["Violation"]) -> bool:
        """Whether ``other`` is the same defect class (kind + property).

        Messages carry incidental detail (agent ids, positions) that a
        shrunk schedule legitimately changes; the shrinker only demands
        the same property to fail the same way.
        """
        return (
            other is not None
            and self.kind == other.kind
            and self.property_name == other.property_name
        )


class PropertyOracle:
    """The property suite of one instance, plus engine construction.

    ``factory`` overrides agent construction exactly as in
    :func:`repro.mc.checker.check_interleavings` (used to inject broken
    agent variants); ``require_halted`` / ``require_suspended``
    override the terminal requirement when ``algorithm`` is not a
    registered name.
    """

    def __init__(
        self,
        algorithm: str,
        placement: Placement,
        *,
        factory: Optional[AgentsFactory] = None,
        safety: Optional[Sequence[SafetyProperty]] = None,
        terminal: Optional[Sequence[TerminalProperty]] = None,
        require_halted: Optional[bool] = None,
        require_suspended: Optional[bool] = None,
        links: Optional[LinkSpec] = None,
    ) -> None:
        self.algorithm = algorithm
        self.placement = placement
        if links is not None and not links.active:
            links = None
        self.links = links
        n, k = placement.ring_size, placement.agent_count
        self.safety: Tuple[SafetyProperty, ...] = tuple(
            default_safety_properties(n, k, links) if safety is None else safety
        )
        self.terminal: Tuple[TerminalProperty, ...] = (
            (resolve_terminal(algorithm, require_halted, require_suspended),)
            if terminal is None
            else tuple(terminal)
        )
        self._factory = factory
        self._root: Optional[Engine] = None

    # -- engines -------------------------------------------------------------

    def fresh_engine(self) -> Engine:
        """A brand new engine for this instance (metrics off)."""
        if self._factory is not None:
            return Engine(
                placement=self.placement,
                agents=list(self._factory()),
                collect_metrics=False,
                links=self.links,
            )
        from repro.experiments.runner import build_engine

        return build_engine(
            self.algorithm,
            self.placement,
            collect_metrics=False,
            links=self.links,
        )

    def fork_root(self) -> Engine:
        """A pristine initial-state engine via copy-on-branch ``fork()``.

        The first call builds (and caches) the root engine; every call
        returns an independent fork of it, so replay-heavy
        callers (the shrinker evaluates hundreds of candidate schedules)
        skip repeated agent construction.
        """
        if self._root is None:
            self._root = self.fresh_engine()
        return self._root.fork()

    # -- checks --------------------------------------------------------------

    def check_step(self, pre, engine, snapshot, acted: int) -> Optional[Violation]:
        """Run every safety property on one executed edge."""
        for prop in self.safety:
            message = prop.check(pre, engine, snapshot, acted)
            if message is not None:
                return Violation(
                    kind="safety", property_name=prop.name, message=message
                )
        return None

    def check_terminal(self, engine, snapshot) -> Optional[Violation]:
        """Run every terminal property on one quiescent state."""
        for prop in self.terminal:
            message = prop.check(engine, snapshot)
            if message is not None:
                return Violation(
                    kind="terminal", property_name=prop.name, message=message
                )
        return None


@dataclass(frozen=True)
class ReplayOutcome:
    """What one oracle-checked schedule replay did."""

    executed: Tuple[int, ...]
    steps: int
    quiesced: bool
    violation: Optional[Violation]

    @property
    def ok(self) -> bool:
        """True when the replay quiesced with every property holding."""
        return self.quiesced and self.violation is None


def drive_schedule(
    oracle: PropertyOracle,
    schedule: Sequence[int],
    *,
    max_steps: int,
    engine: Optional[Engine] = None,
) -> ReplayOutcome:
    """Replay ``schedule`` with property checks on every atomic action.

    Semantics match :class:`~repro.sim.scheduler.ReplayScheduler`
    exactly: entries naming a currently-disabled (or unknown) agent are
    skipped permanently, and once the log is exhausted the lowest-id
    enabled agent runs, so the replay is a total, deterministic function
    of ``(initial state, schedule)``.  The replay stops at the first
    violation, at quiescence (after the terminal properties run), or at
    ``max_steps`` — whichever comes first.

    Pass ``engine=oracle.fork_root()`` to amortise engine construction
    across many replays of the same instance (the shrinker's hot path).
    """
    if engine is None:
        engine = oracle.fresh_engine()
    cursor = 0
    executed: List[int] = []
    violation: Optional[Violation] = None
    quiesced = False
    snapshot = engine.snapshot()
    while len(executed) < max_steps:
        enabled = engine.enabled_agents()
        if not enabled:
            quiesced = True
            violation = oracle.check_terminal(engine, snapshot)
            break
        agent: Optional[int] = None
        while cursor < len(schedule):
            candidate = schedule[cursor]
            cursor += 1
            if candidate in enabled:
                agent = candidate
                break
        if agent is None:
            agent = enabled[0]
        engine.step(agent)
        executed.append(agent)
        pre, snapshot = snapshot, engine.snapshot()
        violation = oracle.check_step(pre, engine, snapshot, agent)
        if violation is not None:
            break
    return ReplayOutcome(
        executed=tuple(executed),
        steps=len(executed),
        quiesced=quiesced,
        violation=violation,
    )
