"""Uniform-deployment verification (paper Definitions 1 and 2).

The problem requires, at quiescence:

* all agents staying at distinct nodes,
* every link queue empty,
* no undelivered messages (Definition 2),
* every gap between adjacent agents equal to ``floor(n/k)`` or
  ``ceil(n/k)`` — and, implied, exactly ``n mod k`` gaps of the larger
  size so the gaps sum to ``n``.

:func:`verify_uniform_deployment` checks all of it against an engine (or
raw positions) and returns a :class:`VerificationReport`; ``strict=True``
callers can use :func:`require_uniform_deployment` to raise instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.sequences import distances_from_positions
from repro.errors import VerificationError

__all__ = [
    "VerificationReport",
    "allowed_gaps",
    "audit_configuration",
    "verify_positions",
    "verify_uniform_deployment",
    "require_uniform_deployment",
]


def audit_configuration(
    configuration: "repro.ring.configuration.Configuration",  # noqa: F821
) -> List[str]:
    """Structural integrity audit of one global snapshot.

    Checks the model's conservation laws on the raw 5-tuple — the
    properties every reachable configuration must satisfy regardless of
    algorithm:

    * every agent occupies exactly one place (one staying set, one link
      queue, one delay buffer, or — under link faults — the lost set;
      never two, never zero),
    * token counters and inbox sizes are non-negative,
    * ``inbox_sizes`` agrees with the full ``inboxes`` contents when the
      snapshot carries them,
    * under link faults: the lost set's size matches the spent loss
      budget (phantom queue/buffer entries are anonymous and occupy no
      agent slot).

    Returns a list of human-readable failure strings (empty when the
    snapshot is structurally sound).  Used by the model checker as a
    per-state safety property and by the stateful property tests.
    """
    failures: List[str] = []
    # Agent id -> (place, node); formatted only when a failure names it.
    seen: dict = {}
    staying = configuration.staying
    queues = configuration.queues
    # ``filter`` skips the empty places at C speed, in the mapping's order.
    for node in filter(staying.__getitem__, staying):
        for agent_id in staying[node]:
            if agent_id in seen:
                failures.append(
                    f"agent {agent_id} at node {node} and {_place(seen[agent_id])}"
                )
            seen[agent_id] = ("staying at", node)
    for node in filter(queues.__getitem__, queues):
        for agent_id in queues[node]:
            if agent_id < 0:
                continue  # phantom duplicate: anonymous, not an agent
            if agent_id in seen:
                failures.append(
                    f"agent {agent_id} queued toward {node} and {_place(seen[agent_id])}"
                )
            seen[agent_id] = ("queued toward", node)
    if configuration.faults is not None:
        buffers, lost, _ordinal, loss_used, _dup_used = configuration.faults
        for node, buffer in enumerate(buffers):
            for payload, remaining in buffer:
                if payload < 0:
                    continue  # phantom duplicate
                if payload in seen:
                    failures.append(
                        f"agent {payload} buffered toward {node} "
                        f"and {_place(seen[payload])}"
                    )
                seen[payload] = ("buffered toward", node)
                if remaining < 0:
                    failures.append(
                        f"negative remaining delay for agent {payload}"
                    )
        for agent_id in lost:
            if agent_id in seen:
                failures.append(
                    f"agent {agent_id} lost in transit and {_place(seen[agent_id])}"
                )
            seen[agent_id] = ("lost in transit", None)
        if len(lost) != loss_used:
            failures.append(
                f"{len(lost)} agents lost but loss budget shows {loss_used} spent"
            )
    if seen.keys() != configuration.agent_states.keys():
        missing = sorted(set(configuration.agent_states) - set(seen))
        if missing:
            failures.append(f"agents {missing} are nowhere on the ring")
        unknown = sorted(set(seen) - set(configuration.agent_states))
        if unknown:
            failures.append(f"unknown agent ids {unknown} on the ring")
    if configuration.tokens and min(configuration.tokens) < 0:
        failures.append(f"negative token count in {configuration.tokens}")
    sizes = configuration.inbox_sizes.values()
    if sizes and min(sizes) < 0:
        failures.append("negative inbox size")
    if configuration.inboxes is not None:
        for agent_id, inbox in configuration.inboxes.items():
            declared = configuration.inbox_sizes.get(agent_id, 0)
            if len(inbox) != declared:
                failures.append(
                    f"agent {agent_id}: inbox_sizes says {declared} but "
                    f"{len(inbox)} messages recorded"
                )
    return failures


def _place(where: Tuple[str, object]) -> str:
    """One :func:`audit_configuration` place as its failure-message text."""
    place, node = where
    return place if node is None else f"{place} {node}"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a uniform-deployment check."""

    ok: bool
    ring_size: int
    agent_count: int
    gaps: Tuple[int, ...]
    failures: Tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        status = "UNIFORM" if self.ok else "NOT UNIFORM"
        detail = "; ".join(self.failures) if self.failures else "all checks passed"
        return (
            f"{status}: n={self.ring_size} k={self.agent_count} "
            f"gaps={self.gaps} ({detail})"
        )


def allowed_gaps(ring_size: int, agent_count: int) -> Tuple[int, int]:
    """Return ``(floor(n/k), ceil(n/k))``, the two legal adjacent gaps."""
    low = ring_size // agent_count
    high = low if ring_size % agent_count == 0 else low + 1
    return low, high


def verify_positions(
    positions: Sequence[int], ring_size: int
) -> VerificationReport:
    """Check the spacing condition for explicit agent positions."""
    failures: List[str] = []
    agent_count = len(positions)
    if agent_count == 0:
        return VerificationReport(False, ring_size, 0, (), ("no agents",))
    if len(set(p % ring_size for p in positions)) != agent_count:
        failures.append("two agents share a node")
        return VerificationReport(
            False, ring_size, agent_count, (), tuple(failures)
        )
    gaps = distances_from_positions(positions, ring_size)
    low, high = allowed_gaps(ring_size, agent_count)
    bad = sorted(set(gap for gap in gaps if gap not in (low, high)))
    if bad:
        failures.append(f"gaps {bad} outside {{{low}, {high}}}")
    expected_high = ring_size % agent_count
    if expected_high and gaps.count(high) != expected_high:
        failures.append(
            f"{gaps.count(high)} gaps of size {high}, expected {expected_high}"
        )
    return VerificationReport(
        ok=not failures,
        ring_size=ring_size,
        agent_count=agent_count,
        gaps=gaps,
        failures=tuple(failures),
    )


def verify_uniform_deployment(
    engine: "repro.sim.engine.Engine",  # noqa: F821 - forward ref, avoids cycle
    require_halted: bool = False,
    require_suspended: bool = False,
) -> VerificationReport:
    """Check Definitions 1/2 against a finished engine run.

    ``require_halted`` asserts every agent is in the halt state
    (Definition 1); ``require_suspended`` asserts every agent is in a
    suspended state with an empty inbox (Definition 2).
    """
    failures: List[str] = []
    ring = engine.ring
    if not ring.all_queues_empty():
        failures.append("agents still in transit on links")
    faults = ring.faults
    if faults is not None:
        if any(faults.buffers):
            failures.append("agents still held in link delay buffers")
        for agent_id in sorted(faults.lost):
            failures.append(f"agent {agent_id} was lost in transit (link fault)")
    if engine.pending_messages() > 0:
        failures.append("undelivered messages remain")
    for agent_id in engine.agent_ids:
        agent = engine.agent(agent_id)
        if require_halted and not agent.halted:
            failures.append(f"agent {agent_id} is not halted")
        if require_suspended and not (agent.suspended or agent.halted):
            failures.append(f"agent {agent_id} is neither suspended nor halted")
    if failures:
        return VerificationReport(
            False, ring.size, len(engine.agent_ids), (), tuple(failures)
        )
    positions = sorted(engine.final_positions().values())
    report = verify_positions(positions, ring.size)
    return report


def require_uniform_deployment(
    engine: "repro.sim.engine.Engine",  # noqa: F821
    require_halted: bool = False,
    require_suspended: bool = False,
) -> VerificationReport:
    """Like :func:`verify_uniform_deployment` but raise on failure."""
    report = verify_uniform_deployment(
        engine, require_halted=require_halted, require_suspended=require_suspended
    )
    if not report:
        raise VerificationError(report.describe())
    return report
