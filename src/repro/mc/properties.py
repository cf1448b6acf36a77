"""Safety and terminal properties checked at every explored state.

Two property shapes:

* :class:`SafetyProperty` — checked on every *edge* of the state graph
  (after every atomic action, at every depth).  Receives the
  pre-transition snapshot (the :class:`~repro.ring.configuration.Configuration`
  the driver already took of the source state), the post-transition
  engine + snapshot and the acting agent, and returns ``None`` (holds)
  or a human-readable violation message.  Properties that compare the
  two states read both sides from the snapshots, never from the live
  ring, so one step of verification copies no ring structure twice.
* :class:`TerminalProperty` — checked on every *quiescent* state the
  search reaches.  Because the checker explores every enabled choice at
  every state, the set of terminal states it visits is exactly the set
  of outcomes of all maximal executions — so a terminal property is a
  liveness claim over every fair schedule ("every maximal execution
  ends uniformly deployed"), verified exhaustively at these sizes.

The built-ins cover the paper's claims:

* :class:`StructuralIntegrity` — conservation laws of the 5-tuple
  (every agent in exactly one place, consistent inbox accounting),
* :class:`FifoLinkIntegrity` — link queues change only by the actor
  leaving a head and/or entering a tail (the no-overtaking property),
* :class:`TokenMonotonicity` — token counters never decrease and at
  most one token appears per action,
* :class:`MemoryBound` — audited agent memory stays under an
  O(k log n)-shaped ceiling (catches unbounded state growth),
* :class:`UniformTerminal` — Definitions 1/2: every terminal state is
  a uniform deployment with the right terminal agent states.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.analysis.verification import audit_configuration, verify_uniform_deployment
from repro.errors import ConfigurationError, SimulationError
from repro.ring.configuration import Configuration
from repro.ring.faults import PHANTOM, LinkSpec
from repro.sim.engine import Engine

__all__ = [
    "SafetyProperty",
    "TerminalProperty",
    "StructuralIntegrity",
    "FifoLinkIntegrity",
    "TokenMonotonicity",
    "MemoryBound",
    "EnabledSetConsistency",
    "FaultBudgetBound",
    "UniformTerminal",
    "default_memory_limit",
    "default_safety_properties",
    "resolve_terminal",
]


class SafetyProperty:
    """Edge-level property: must hold after every atomic action."""

    name = "safety"

    def check(
        self,
        pre: Configuration,
        engine: Engine,
        snapshot: Configuration,
        acted: int,
    ) -> Optional[str]:
        """Return ``None`` when the property holds, else a description.

        ``pre`` is the snapshot of the state before ``acted``'s action,
        ``snapshot`` the one after it; ``engine`` is in the after state.
        """
        raise NotImplementedError


class TerminalProperty:
    """State-level property checked at every quiescent state."""

    name = "terminal"

    def check(self, engine: Engine, snapshot: Configuration) -> Optional[str]:
        raise NotImplementedError


class StructuralIntegrity(SafetyProperty):
    """Conservation laws of the configuration 5-tuple."""

    name = "structural-integrity"

    def check(self, pre, engine, snapshot, acted):
        failures = audit_configuration(snapshot)
        if failures:
            return "; ".join(failures)
        return None


class FifoLinkIntegrity(SafetyProperty):
    """Queues are strictly FIFO and only the actor touches them.

    One atomic action of agent ``a`` may change the link queues in at
    most two ways: ``a`` leaves the *head* of its arrival queue, and/or
    ``a`` enters the *tail* of the destination queue.  Any other delta —
    a reorder, a removal from the middle, a foreign agent appearing —
    is an overtake or a corruption the model forbids.

    Under an active :class:`~repro.ring.faults.LinkSpec` the invariant
    is *preserved under pure delay* and relaxed only where duplication
    shows: the tail-enter may carry a trailing phantom (a duplicated
    delivery rides immediately behind its original), a moving agent may
    touch no queue at all (held in a delay buffer, or lost in transit),
    and a *link actor* may pop a phantom from its own queue's head or
    deliver one buffered payload to its own queue's tail (send order —
    the delay buffer is itself FIFO).  Everything else — reorders,
    foreign queues, mid-queue edits — stays forbidden.
    """

    name = "fifo-link-integrity"

    def check(self, pre, engine, snapshot, acted):
        queues = snapshot.queues
        pre_queues = pre.queues
        if queues == pre_queues:
            return None
        faulty = engine.ring.faults is not None
        for node in range(snapshot.ring_size):
            before = pre_queues[node]
            after = queues[node]
            if after == before:
                continue
            if acted < 0:
                # Link actor: may only touch the queue of its own link.
                if node != -acted - 1:
                    return (
                        f"queue into node {node} changed {before} -> {after} "
                        f"by link actor {acted} of another link"
                    )
                if before and before[0] == PHANTOM and after == before[1:]:
                    continue  # phantom consumed at the head
                if len(after) == len(before) + 1 and after[: len(before)] == before:
                    continue  # one buffered payload delivered to the tail
                return (
                    f"queue into node {node} changed {before} -> {after} "
                    f"by link actor {acted}: not a phantom-pop/buffer-delivery"
                )
            popped = before[1:] if before and before[0] == acted else None
            if after == popped:
                continue  # the actor arrived from this queue's head
            if after == before + (acted,):
                continue  # the actor entered this queue's tail
            if popped is not None and after == popped + (acted,):
                continue  # n == 1: left the head and re-entered the tail
            if faulty:
                # Duplication: the phantom copy enters directly behind.
                if after == before + (acted, PHANTOM):
                    continue
                if popped is not None and after == popped + (acted, PHANTOM):
                    continue
            return (
                f"queue into node {node} changed {before} -> {after} "
                f"by agent {acted}: not a head-leave/tail-enter"
            )
        return None


class TokenMonotonicity(SafetyProperty):
    """Tokens are never removed; one action releases at most one."""

    name = "token-monotonicity"

    def check(self, pre, engine, snapshot, acted):
        after = snapshot.tokens
        if after == pre.tokens:
            return None
        if any(now < was for was, now in zip(pre.tokens, after)):
            return f"token count decreased: {pre.tokens} -> {after}"
        if sum(after) - sum(pre.tokens) > 1:
            return f"more than one token released in one action: {pre.tokens} -> {after}"
        return None


#: Most fingerprints :class:`MemoryBound` remembers the bits of; the
#: memo is emptied when it is full.  Module-level, not per instance:
#: :func:`repro.mc.frontier.check_spec` describes a property by its
#: ``vars()``, so a memo attribute would change every journaled check's
#: hash.
_MEMORY_BITS_CAP = 2048
_MEMORY_BITS: Dict[object, int] = {}


class MemoryBound(SafetyProperty):
    """The acting agent's audited memory stays under ``limit_bits``.

    The bits are memoised process-wide on the acting agent's state
    fingerprint, which the snapshot already holds.
    :meth:`repro.sim.agent.Agent.memory_bits` reads only the declared
    variables and the fingerprint holds every one of them, so equal
    fingerprints audit to equal bits, with one exception: ``True == 1``
    and ``False == 0`` hash alike, but a bool costs one bit and ``1``
    costs two.  The memo is exact under the rule that no agent field
    holds a ``bool`` in one state and an ``int`` in another.
    ``tests/test_fingerprint_completeness.py`` enforces that rule on
    every reachable state of its cells, and checks there that each
    fingerprint audits to one ``memory_bits()`` value.  Unhashable
    fingerprints are audited without the memo.
    """

    name = "memory-bound"

    def __init__(self, limit_bits: int) -> None:
        self.limit_bits = limit_bits

    def check(self, pre, engine, snapshot, acted):
        if acted < 0:
            return None  # link actors have no agent memory
        fingerprint = snapshot.agent_states[acted]
        try:
            bits = _MEMORY_BITS[fingerprint]
        except KeyError:
            bits = engine.agent(acted).memory_bits()
            if len(_MEMORY_BITS) >= _MEMORY_BITS_CAP:
                _MEMORY_BITS.clear()
            _MEMORY_BITS[fingerprint] = bits
        except TypeError:
            bits = engine.agent(acted).memory_bits()
        if bits > self.limit_bits:
            return (
                f"agent {acted} uses {bits} bits of state "
                f"(limit {self.limit_bits})"
            )
        return None


class EnabledSetConsistency(SafetyProperty):
    """The incremental enabled set matches the O(k) recompute oracle."""

    name = "enabled-set-consistency"

    def check(self, pre, engine, snapshot, acted):
        try:
            engine.check_enabledness_invariant()
        except SimulationError as error:
            return str(error)
        return None


class FaultBudgetBound(SafetyProperty):
    """Conservation modulo the declared fault budgets.

    Agents may only disappear into the declared loss budget (never more
    than ``loss`` dropped, and every drop accounted in the lost set —
    :class:`StructuralIntegrity` checks the set/counter agreement),
    phantoms may only appear inside the ``dup`` budget, and no delivery
    is ever held longer than ``delay`` link actions.  Together with the
    structural audit this is the faulty ring's conservation law: the
    reliable law (nothing appears, nothing disappears) weakened by
    exactly the declared envelope and nothing else.
    """

    name = "fault-budget-bound"

    def __init__(self, links: LinkSpec) -> None:
        # Stored as scalars (not the spec object) so the property's
        # ``vars()`` stay hashable primitives for check-spec fingerprints.
        self.delay = links.delay
        self.loss = links.loss
        self.dup = links.dup

    def check(self, pre, engine, snapshot, acted):
        faults = engine.ring.faults
        if faults is None:
            return "fault-budget property attached to a reliable engine"
        if faults.loss_used > self.loss:
            return (
                f"{faults.loss_used} agents lost, budget allows {self.loss}"
            )
        if faults.dup_used > self.dup:
            return (
                f"{faults.dup_used} phantoms spawned, budget allows {self.dup}"
            )
        for node, buffer in enumerate(faults.buffers):
            for payload, remaining in buffer:
                if remaining > self.delay:
                    return (
                        f"payload {payload} held {remaining} ticks on the "
                        f"link into {node}, bound is {self.delay}"
                    )
        return None


class UniformTerminal(TerminalProperty):
    """Every quiescent state is a uniform deployment (Definitions 1/2).

    Under link faults with a spent loss budget the claim is vacuous:
    fewer than ``k`` agents survive, so no placement of the survivors
    can satisfy the k-agent spacing condition and the algorithm cannot
    be blamed for it.  Delay and duplication change nothing here — at
    quiescence every buffer has drained and every phantom is consumed
    (a pending one would keep its link actor enabled), so the full
    check applies.
    """

    name = "uniform-terminal"

    def __init__(self, require_halted: bool, require_suspended: bool) -> None:
        self.require_halted = require_halted
        self.require_suspended = require_suspended

    def check(self, engine, snapshot):
        faults = engine.ring.faults
        if faults is not None and faults.lost:
            return None  # vacuous: the declared loss ate an agent
        report = verify_uniform_deployment(
            engine,
            require_halted=self.require_halted,
            require_suspended=self.require_suspended,
        )
        if not report:
            return report.describe()
        return None


def resolve_terminal(
    algorithm: str,
    require_halted: "Optional[bool]" = None,
    require_suspended: "Optional[bool]" = None,
) -> UniformTerminal:
    """The terminal requirement an instance of ``algorithm`` must meet.

    With explicit ``require_halted`` / ``require_suspended`` those win;
    otherwise the registered algorithm's ``halts`` flag decides
    (termination-detecting algorithms must halt, the relaxed algorithm
    must suspend).  Unregistered names without explicit requirements are
    a :class:`~repro.errors.ConfigurationError` — shared by the model
    checker and the schedule fuzzer.
    """
    if require_halted is None and require_suspended is None:
        from repro.registry import get_algorithm

        try:
            halts = get_algorithm(algorithm).halts
        except ConfigurationError:
            raise ConfigurationError(
                f"unknown algorithm {algorithm!r} and no explicit terminal "
                "requirements; pass require_halted/require_suspended"
            ) from None
        require_halted, require_suspended = halts, not halts
    return UniformTerminal(
        require_halted=bool(require_halted),
        require_suspended=bool(require_suspended),
    )


def default_memory_limit(ring_size: int, agent_count: int) -> int:
    """A generous O(k log n)-shaped ceiling on audited agent memory.

    Every algorithm in the paper is O(k log n) bits or better; 64 bits
    per stored quantity leaves ample constant-factor slack while still
    tripping on genuinely unbounded state growth within a few actions.
    """
    return 64 * (agent_count + 2) * (max(2, ring_size).bit_length() + 2)


def default_safety_properties(
    ring_size: int,
    agent_count: int,
    links: "Optional[LinkSpec]" = None,
) -> Tuple[SafetyProperty, ...]:
    """The standard per-edge property suite for one instance size.

    With an active ``links`` spec the suite additionally enforces the
    fault-budget conservation law (:class:`FaultBudgetBound`); the
    other properties are fault-aware by construction.
    """
    properties: Tuple[SafetyProperty, ...] = (
        StructuralIntegrity(),
        FifoLinkIntegrity(),
        TokenMonotonicity(),
        MemoryBound(default_memory_limit(ring_size, agent_count)),
        EnabledSetConsistency(),
    )
    if links is not None and links.active:
        properties = properties + (FaultBudgetBound(links),)
    return properties
