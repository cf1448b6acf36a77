"""Exhaustive interleaving exploration with replayable counterexamples.

:func:`check_interleavings` explores *every* enabled-agent choice from
one initial configuration: at each reachable state it branches on each
enabled agent, executing one atomic action per branch on a
copy-on-branch engine fork.  It is the in-process (``jobs=1``) entry
point of the one search loop, :func:`repro.mc.parallel.check_frontier`.
Visited states are memoised on the canonical
:class:`~repro.ring.configuration.Configuration` (states equal up to
ring rotation and agent relabelling are explored once — sound, because
the engine's transition relation is equivariant under both
symmetries).  The instance's :class:`~repro.mc.oracle.PropertyOracle`
checks safety properties on every edge and terminal properties on every
quiescent state, and a strongly connected component of the explored
state graph is reported as a livelock cycle.

Because the search is exhaustive, a clean result at one size is a
*proof* of the paper's claim at that size: no fair asynchronous schedule
from that initial configuration can violate the property.  This is the
leap stateless model checkers (CHESS, SPIN) make for concurrent code,
applied to the paper's agent model.

Every violation is emitted as a :class:`Counterexample` whose
``schedule`` is the exact activation prefix from the initial state —
feed it to :class:`repro.sim.scheduler.ReplayScheduler` (or
:func:`replay_counterexample`) to reproduce the violation
deterministically, event for event.  :class:`MCResult` is the one result
type of every driver, with its JSON codec (``to_dict``/``from_dict``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.mc.oracle import AgentsFactory, PropertyOracle, Violation
# Unused here, but perfbench's tracer wraps these three in this module's
# namespace (``vars(module)[attr]``), so they must stay importable from it.
from repro.mc.por import agents_of_slots, sleep_after, slots_of_agents  # noqa: F401
from repro.mc.properties import SafetyProperty, TerminalProperty
from repro.mc.state import SearchStats
from repro.ring.faults import LinkSpec
from repro.ring.placement import Placement
from repro.sim.engine import Engine

__all__ = [
    "Counterexample",
    "MCResult",
    "check_interleavings",
    "exhaust_placements",
    "all_placements",
    "replay_counterexample",
]

@dataclass(frozen=True)
class Counterexample:
    """A violating execution, pinned down to a replayable schedule.

    ``schedule`` is the agent-activation prefix from the initial
    configuration up to and including the violating action (for
    ``terminal`` violations it runs all the way to quiescence).  The
    kinds are ``safety`` (an edge property failed), ``terminal`` (a
    quiescent state is not a uniform deployment) and ``cycle`` (a
    livelock lasso: a shortest path into a cycle of the explored state
    graph, then once around it).
    """

    algorithm: str
    placement: Placement
    schedule: Tuple[int, ...]
    kind: str
    property_name: str
    message: str

    @classmethod
    def of(
        cls, oracle: PropertyOracle, violation: Violation, schedule: Sequence[int]
    ) -> "Counterexample":
        """``violation`` of ``oracle``'s instance, reached by ``schedule``."""
        return cls(
            algorithm=oracle.algorithm,
            placement=oracle.placement,
            schedule=tuple(schedule),
            kind=violation.kind,
            property_name=violation.property_name,
            message=violation.message,
        )

    def describe(self) -> str:
        return (
            f"[{self.kind}:{self.property_name}] {self.message} | "
            f"{self.placement.describe()} | schedule={list(self.schedule)}"
        )

    def replay_line(self) -> str:
        """A one-line reproduction recipe for bug reports and tests."""
        return (
            f"ReplayScheduler({list(self.schedule)}) on "
            f"Placement(ring_size={self.placement.ring_size}, "
            f"homes={self.placement.homes}) with {self.algorithm!r}"
        )


@dataclass(frozen=True)
class MCResult:
    """Outcome of one exhaustive check of one initial configuration.

    ``por_skipped`` counts enabled transitions the sleep-set reduction
    proved redundant and never executed; ``memo_bytes`` approximates the
    peak visited-memo footprint; ``terminal_keys`` are the canonical
    keys (hex) of every quiescent state reached — the differential POR
    gate compares them against full expansion.
    """

    algorithm: str
    placement: Placement
    explored: int
    transitions: int
    deduped: int
    terminals: int
    max_depth: int
    complete: bool
    violations: Tuple[Counterexample, ...]
    por_skipped: int = 0
    memo_bytes: int = 0
    terminal_keys: Tuple[str, ...] = ()

    @classmethod
    def from_search(
        cls,
        oracle: PropertyOracle,
        stats: SearchStats,
        visited: dict,
        violations: Sequence[Counterexample],
        terminal_keys: Sequence[str],
        *,
        complete: bool,
        stop_at_first: bool,
    ) -> "MCResult":
        """The result of a finished search (every driver builds it here)."""
        stats.memo_bytes = sum(16 + 8 * len(slots) for slots in visited.values())
        return cls(
            algorithm=oracle.algorithm,
            placement=oracle.placement,
            explored=stats.explored,
            transitions=stats.transitions,
            deduped=stats.deduped,
            terminals=stats.terminals,
            max_depth=stats.max_depth,
            # Stopping at the first violation leaves the space unexhausted.
            complete=complete and not (stop_at_first and violations),
            violations=tuple(violations),
            por_skipped=stats.por_skipped,
            memo_bytes=stats.memo_bytes,
            terminal_keys=tuple(sorted(terminal_keys)),
        )

    @property
    def ok(self) -> bool:
        """True when the schedule space was exhausted with no violation."""
        return self.complete and not self.violations

    @property
    def verdict(self) -> str:
        """``ok`` / ``violation`` / ``truncated`` — the one-word outcome."""
        if self.violations:
            return "violation"
        return "ok" if self.complete else "truncated"

    def describe(self) -> str:
        status = "EXHAUSTED" if self.complete else "TRUNCATED"
        verdict = "ok" if not self.violations else f"{len(self.violations)} VIOLATIONS"
        return (
            f"{status} {self.algorithm} {self.placement.describe()}: "
            f"{self.explored} states, {self.transitions} transitions, "
            f"{self.deduped} deduped, {self.por_skipped} por-skipped, "
            f"{self.terminals} terminal, "
            f"max depth {self.max_depth} -> {verdict}"
        )

    def to_dict(self) -> dict:
        """A JSON-serialisable record (``repro mc --json``, CI artifacts)."""
        return {
            "algorithm": self.algorithm,
            "placement": {
                "ring_size": self.placement.ring_size,
                "homes": list(self.placement.homes),
            },
            "verdict": self.verdict,
            "ok": self.ok,
            "complete": self.complete,
            "explored": self.explored,
            "transitions": self.transitions,
            "deduped": self.deduped,
            "por_skipped": self.por_skipped,
            "terminals": self.terminals,
            "max_depth": self.max_depth,
            "memo_bytes": self.memo_bytes,
            "terminal_keys": list(self.terminal_keys),
            "violations": [
                {
                    "kind": violation.kind,
                    "property": violation.property_name,
                    "message": violation.message,
                    "schedule": list(violation.schedule),
                }
                for violation in self.violations
            ],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "MCResult":
        """Inverse of :meth:`to_dict` (a spilled ``result.json``)."""
        placement = Placement(
            ring_size=record["placement"]["ring_size"],
            homes=tuple(record["placement"]["homes"]),
        )
        return cls(
            algorithm=record["algorithm"],
            placement=placement,
            explored=record["explored"],
            transitions=record["transitions"],
            deduped=record["deduped"],
            terminals=record["terminals"],
            max_depth=record["max_depth"],
            complete=record["complete"],
            violations=tuple(
                Counterexample(
                    algorithm=record["algorithm"],
                    placement=placement,
                    schedule=tuple(entry["schedule"]),
                    kind=entry["kind"],
                    property_name=entry["property"],
                    message=entry["message"],
                )
                for entry in record["violations"]
            ),
            por_skipped=record["por_skipped"],
            memo_bytes=record["memo_bytes"],
            terminal_keys=tuple(record["terminal_keys"]),
        )


def _cycle_message(depth: int) -> str:
    """The livelock-cycle violation text for a lasso of ``depth`` actions
    (shared with the replay check)."""
    return (
        "schedule returns to a state already on its own path "
        f"after {depth} actions"
    )


def check_interleavings(
    algorithm: str,
    placement: Placement,
    *,
    factory: Optional[AgentsFactory] = None,
    require_halted: Optional[bool] = None,
    require_suspended: Optional[bool] = None,
    safety: Optional[Sequence[SafetyProperty]] = None,
    terminal: Optional[Sequence[TerminalProperty]] = None,
    depth_limit: Optional[int] = None,
    max_states: Optional[int] = None,
    stop_at_first: bool = True,
    por: bool = True,
    links: Optional[LinkSpec] = None,
    progress: Optional[Callable[[SearchStats], None]] = None,
) -> MCResult:
    """Exhaust every fair interleaving from ``placement`` under ``algorithm``.

    ``factory`` overrides agent construction (used to inject broken
    variants); ``algorithm`` then only labels the result, and the
    terminal requirement must be derivable (registered name) or given
    explicitly via ``require_halted`` / ``require_suspended``.

    ``depth_limit`` bounds the schedule prefix length and ``max_states``
    the visited-state count; hitting either leaves ``complete=False``
    (the result is then a bounded check, not a proof).  With
    ``stop_at_first`` (the default) the search stops at the end of the
    wave that found its first violation.  With
    ``stop_at_first=False`` it records every violation (one
    livelock cycle per cyclic strongly connected component) but never
    explores past a violating state.  ``progress`` receives the running
    :class:`SearchStats` at the end of each wave in which the transition
    count crosses a multiple of
    :data:`~repro.mc.parallel.PROGRESS_EVERY`.

    ``por=True`` (the default) applies the sleep-set partial-order
    reduction of :mod:`repro.mc.por`: redundant interleavings of
    commuting agent actions are pruned *without* losing any reachable
    state, so verdicts, explored-state counts and terminal-state sets
    are identical to full expansion while the executed-transition count
    drops.  ``por=False`` restores plain full expansion.

    ``links`` injects a :class:`~repro.ring.faults.LinkSpec`: the state
    graph gains link-actor branches (delayed deliveries, phantom
    consumption) and the default safety suite switches to its
    fault-aware variants.  Sleep sets are unsound under the shared
    fault-draw stream (see :mod:`repro.mc.por`), so an active spec
    forces full expansion regardless of ``por``.
    """
    from repro.mc.parallel import check_frontier

    return check_frontier(
        algorithm, placement, jobs=1, factory=factory,
        require_halted=require_halted, require_suspended=require_suspended,
        safety=safety, terminal=terminal, depth_limit=depth_limit,
        max_states=max_states, stop_at_first=stop_at_first, por=por,
        links=links, progress=progress,
    )


def all_placements(
    ring_size: int, agent_count: int, *, dedupe_rotations: bool = True
) -> Iterator[Placement]:
    """Every initial configuration with one home fixed at node 0.

    The ring is anonymous, so fixing one home at node 0 enumerates all
    configurations up to rotation *of the node labels*.  Two placements
    whose distance sequences are rotations of each other are still the
    same anonymous configuration, though — agent ids carry no meaning —
    so with ``dedupe_rotations`` (the default) only one representative
    per necklace class is yielded: the verification grid never
    re-verifies a symmetric initial configuration.  Pass
    ``dedupe_rotations=False`` to recover the raw ``C(n-1, k-1)``
    enumeration.
    """
    seen = set()
    for others in itertools.combinations(range(1, ring_size), agent_count - 1):
        placement = Placement(ring_size=ring_size, homes=(0,) + others)
        if dedupe_rotations:
            distances = placement.distances
            necklace = min(
                distances[i:] + distances[:i] for i in range(len(distances))
            )
            if necklace in seen:
                continue
            seen.add(necklace)
        yield placement


def exhaust_placements(
    algorithm: str,
    ring_size: int,
    agent_count: int,
    *,
    dedupe_rotations: bool = True,
    jobs: int = 1,
    **kwargs,
) -> List[MCResult]:
    """Run :func:`check_interleavings` on every placement of ``(n, k)``.

    ``jobs > 1`` fans whole placements across a process pool (results
    keep placement order, so the output is identical to the serial run);
    it requires a registered ``algorithm`` name — ``factory`` callables
    and ``progress`` hooks do not cross process boundaries.
    """
    placements = list(
        all_placements(ring_size, agent_count, dedupe_rotations=dedupe_rotations)
    )
    if jobs > 1:
        from repro.mc.parallel import check_placements_pool

        return check_placements_pool(algorithm, placements, jobs=jobs, **kwargs)
    return [
        check_interleavings(algorithm, placement, **kwargs)
        for placement in placements
    ]


def replay_counterexample(
    counterexample: Counterexample,
    *,
    factory: Optional[AgentsFactory] = None,
    require_halted: Optional[bool] = None,
    require_suspended: Optional[bool] = None,
    safety: Optional[Sequence[SafetyProperty]] = None,
    terminal: Optional[Sequence[TerminalProperty]] = None,
    links: Optional[LinkSpec] = None,
) -> Tuple[Engine, List[str]]:
    """Re-drive a counterexample schedule and re-check its properties.

    Rebuilds a fresh engine for the counterexample's algorithm and
    placement, executes the recorded schedule step by step, and runs
    the same property suite along the way.  Returns the final engine
    and every violation message observed — every failing property on
    every step, not only the first — a deterministic replay of the
    original search's finding (the test suite asserts the original
    message is reproduced verbatim).  A counterexample found under a
    :class:`~repro.ring.faults.LinkSpec` must be replayed under the
    same ``links`` value — the schedule's link-actor entries only exist
    on a faulty engine.
    """
    oracle = PropertyOracle(
        counterexample.algorithm,
        counterexample.placement,
        factory=factory,
        safety=safety,
        # Only a terminal counterexample consults the terminal suite, so
        # the other kinds replay without a resolvable terminal requirement.
        terminal=terminal if counterexample.kind == "terminal" else (),
        require_halted=require_halted,
        require_suspended=require_suspended,
        links=links,
    )
    engine = oracle.fresh_engine()
    messages: List[str] = []
    snapshot = engine.snapshot()
    path_keys = {snapshot.canonical_key()}
    for agent_id in counterexample.schedule:
        engine.step(agent_id)
        pre, snapshot = snapshot, engine.snapshot()
        for prop in oracle.safety:
            message = prop.check(pre, engine, snapshot, agent_id)
            if message is not None:
                messages.append(message)
        path_keys.add(snapshot.canonical_key())
    if counterexample.kind == "cycle":
        # A livelock schedule must land on a state it already visited:
        # the set of distinct canonical states along the path is then
        # strictly smaller than the number of path positions.
        if len(path_keys) <= len(counterexample.schedule):
            messages.append(_cycle_message(len(counterexample.schedule)))
    for prop in oracle.terminal:
        message = prop.check(engine, snapshot)
        if message is not None:
            messages.append(message)
    return engine, messages
