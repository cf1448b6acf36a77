"""The unidirectional anonymous ring substrate (paper Section 2.1).

A ring ``R = (V, E)`` has ``n`` anonymous nodes ``v_0 .. v_{n-1}`` and
unidirectional FIFO links ``e_i = (v_i, v_{i+1 mod n})``.  This module
holds the *passive* state of the model:

* per-node token counters (``T`` in the configuration 5-tuple),
* per-node sets of *staying* agents (``P``),
* per-link FIFO queues of in-transit agents (``Q``).

Agent states (``S``) and message queues (``M``) live on the agent objects
themselves (see ``repro.sim``); :class:`repro.ring.configuration.Configuration`
assembles the full 5-tuple snapshot when needed.

Node indices exist only for the simulator's bookkeeping — agents never see
them.  Everything an agent may observe at a node is packaged by the engine
into a :class:`repro.sim.actions.NodeView`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.ring.faults import LinkSpec

__all__ = ["Ring", "RingFaults"]


class RingFaults:
    """Mutable link-fault state of one ring (present only when faulty).

    One shared object: the ring and the engine hold the *same*
    instance, so counter updates are visible to both.  ``buffers[i]``
    is the FIFO delay buffer of the link into node ``i`` — ``[payload,
    remaining]`` pairs, head at index 0, where payload is an agent id
    or :data:`~repro.ring.faults.PHANTOM` — draining into ``queues[i]``
    in send order (FIFO is preserved under pure delay).  ``ordinal``
    counts move-onto-link events (the label-invariant draw key),
    ``loss_used``/``dup_used`` track the consumed budgets, and ``lost``
    holds the ids of agents dropped in transit.
    """

    __slots__ = ("spec", "buffers", "lost", "ordinal", "loss_used", "dup_used")

    def __init__(self, spec: LinkSpec, size: int) -> None:
        self.spec = spec
        self.buffers: List[Deque[List[int]]] = [deque() for _ in range(size)]
        self.lost: Set[int] = set()
        self.ordinal = 0
        self.loss_used = 0
        self.dup_used = 0

    def clone(self) -> "RingFaults":
        other = RingFaults.__new__(RingFaults)
        other.spec = self.spec
        other.buffers = [
            deque(list(entry) for entry in buffer) for buffer in self.buffers
        ]
        other.lost = set(self.lost)
        other.ordinal = self.ordinal
        other.loss_used = self.loss_used
        other.dup_used = self.dup_used
        return other

    def snapshot(self) -> Tuple[object, ...]:
        """Hashable value state (for :class:`Configuration` snapshots)."""
        return (
            tuple(
                tuple((entry[0], entry[1]) for entry in buffer)
                for buffer in self.buffers
            ),
            tuple(sorted(self.lost)),
            self.ordinal,
            self.loss_used,
            self.dup_used,
        )


class Ring:
    """Passive state of an ``n``-node unidirectional ring.

    The fields are public, and :class:`repro.sim.engine.Engine` is the
    only code that writes them: it places C0 and applies every atomic
    action.  The ring checks nothing itself.  The model's invariants
    are checked on snapshots and on the engine:

    * tokens are never removed, and one action releases at most one —
      :class:`~repro.mc.properties.TokenMonotonicity`;
    * link queues are strictly FIFO, agents enter at the tail and leave
      at the head only (no overtaking) —
      :class:`~repro.mc.properties.FifoLinkIntegrity`;
    * an agent stays at exactly one node, or sits in exactly one link
      queue or delay buffer, or is lost —
      :func:`~repro.analysis.verification.audit_configuration`, run as
      :class:`~repro.mc.properties.StructuralIntegrity`;
    * the engine's live enabled set matches this state —
      :meth:`repro.sim.engine.Engine.recompute_enabled_agents`, run as
      :class:`~repro.mc.properties.EnabledSetConsistency` and by
      ``validate_enabledness=True``.

    The fields:

    * ``size`` — the number of nodes ``n``;
    * ``tokens[i]`` — the token count of node ``i``;
    * ``staying[i]`` — the set of agents staying at node ``i``;
    * ``queues[i]`` — the agents in transit toward node ``i`` (the
      paper's ``q_i``, the queue of link ``(v_{i-1}, v_i)``), head at
      index 0;
    * ``locations`` — agent id -> one int code (staying at node ``i``
      -> ``i``; queued toward node ``i`` -> ``-(i + 1)``; held in the
      delay buffer of the link into ``i`` -> ``-(i + 1 + n)``), so the
      hot path never allocates location tuples; :meth:`locate` decodes
      it;
    * ``faults`` — the :class:`RingFaults` block under an active
      :class:`~repro.ring.faults.LinkSpec` (delay buffers feeding the
      queues, the lost-agent set, the draw counters), else ``None``.
      A reliable ring allocates none of it.
    """

    __slots__ = ("size", "tokens", "staying", "queues", "locations", "faults")

    def __init__(self, size: int, links: Optional[LinkSpec] = None) -> None:
        if size <= 0:
            raise ConfigurationError(f"ring size must be positive, got {size}")
        self.size = size
        self.tokens: List[int] = [0] * size
        self.staying: List[Set[int]] = [set() for _ in range(size)]
        self.queues: List[Deque[int]] = [deque() for _ in range(size)]
        self.locations: Dict[int, int] = {}
        self.faults: Optional[RingFaults] = (
            RingFaults(links, size) if links is not None and links.active else None
        )

    @property
    def links(self) -> Optional[LinkSpec]:
        """The active link-fault spec, or ``None`` on a reliable ring."""
        return None if self.faults is None else self.faults.spec

    def locate(self, agent_id: int) -> Tuple[str, int]:
        """Return ``("node", i)``, ``("queue", i)`` or ``("buffer", i)``."""
        try:
            code = self.locations[agent_id]
        except KeyError:
            raise SimulationError(f"agent {agent_id} is not on the ring") from None
        if code < -self.size:
            return ("buffer", -code - 1 - self.size)
        if code < 0:
            return ("queue", -code - 1)
        return ("node", code)

    def queue_head(self, node: int) -> int:
        """Return the agent at the head of the queue entering ``node``."""
        queue = self.queues[node]
        if not queue:
            raise SimulationError(f"queue into node {node} is empty")
        return queue[0]

    def all_queues_empty(self) -> bool:
        """Return ``True`` when no agent is in transit (all ``q_i`` empty)."""
        return all(not queue for queue in self.queues)

    def clone(self) -> "Ring":
        """Return a deep copy of the passive ring state.

        Agent ids are plain ints, so copying the structures fully
        detaches the clone: mutations on either ring never leak to the
        other.  Used by :meth:`repro.sim.engine.Engine.fork`.
        """
        other = Ring.__new__(Ring)
        other.size = self.size
        other.tokens = list(self.tokens)
        other.staying = [set(agents) for agents in self.staying]
        other.queues = [deque(queue) for queue in self.queues]
        other.locations = dict(self.locations)
        other.faults = None if self.faults is None else self.faults.clone()
        return other
