"""The asynchronous discrete-event engine (paper Section 2.1).

The engine owns a :class:`repro.ring.network.Ring`, the agents, their
message inboxes and the schedule.  One engine *step* is one atomic
action of one agent:

1. the agent arrives from the incoming link (if queued at the head) or
   is activated in place (if staying),
2. all pending messages are delivered at once,
3. the agent computes (its protocol takes one transition),
4. an optional broadcast is appended to the inboxes of all *other*
   agents staying at the node,
5. the agent moves forward (entering the tail of the out-link's FIFO
   queue) or stays.

Model guarantees enforced here:

* **Initial buffer rule** — agents start inside the incoming buffer of
  their home node, so each agent acts at its home before any other
  agent can visit it.
* **Enabledness** — only agents that can actually act are schedulable:
  queue heads, staying non-suspended agents, and suspended agents with
  a non-empty inbox.  Halted agents are never schedulable.
* **Quiescence** — the run ends when no agent is enabled: for the
  termination-detection algorithms this means all agents halted; for
  the relaxed algorithm it is the paper's "all suspended, no messages
  pending, all links empty" condition (Definition 2).

Incremental enabledness
-----------------------

The engine maintains the enabled-agent set *live* instead of rescanning
all ``k`` agents before every scheduler batch.  Every state transition
updates the set in O(1):

* **dequeue** (arrival) — the actor leaves the queue head; the new head,
  if any, becomes enabled (queued agents are never halted or suspended:
  halt and suspend both imply STAY, and ``Agent.act`` clears the
  suspended flag before the protocol runs, so whatever enters a queue is
  an active agent),
* **settle** — the actor becomes enabled unless it halted or suspended
  (its inbox is always empty at this point: it was drained in step 2 and
  broadcasts never target the acting agent),
* **move** — the actor becomes enabled iff it is alone in the
  destination queue (i.e. it is the head),
* **wake** — a broadcast appended to the empty inbox of a suspended
  agent enables it (halted agents are never suspended, so they can
  accumulate messages without ever re-entering the set).

Single-agent-per-batch adversaries (``RandomScheduler`` and friends)
therefore cost O(1) *bookkeeping* per atomic action instead of an O(k)
rescan of locations, queue heads and inboxes.  (The per-batch handoff
to the scheduler still sorts the live set — O(E log E) for E enabled
agents — so the net effect is a large constant-factor win, ~4x at
n=1024, k=32, rather than a strict O(steps) bound.)  The original
full rescan survives as :meth:`Engine.recompute_enabled_agents`, the
differential oracle; construct the engine with ``validate_enabledness=
True`` to assert ``incremental == recompute`` after every batch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    ConfigurationError,
    SimulationError,
    SimulationLimitExceeded,
)
from repro.ring.configuration import Configuration, encode_payload
from repro.ring.faults import PHANTOM, LinkSpec
from repro.ring.network import Ring
from repro.ring.placement import Placement
from repro.sim.actions import Move, NodeView
from repro.sim.agent import Agent
from repro.sim.metrics import Metrics
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceEvent, TraceEventKind, TraceRecorder

__all__ = ["Engine"]

#: Default safety multiplier: the paper's algorithms use O(k n) moves and
#: comparable numbers of waits; 64x that with slack catches livelocks
#: without tripping on legitimate executions.
_DEFAULT_STEP_SLACK = 64


class Engine:
    """Drives one execution of one algorithm on one initial configuration."""

    def __init__(
        self,
        placement: Placement,
        agents: Sequence[Agent],
        scheduler: Optional[Scheduler] = None,
        trace: Optional[TraceRecorder] = None,
        max_steps: Optional[int] = None,
        memory_audit_interval: int = 16,
        collect_metrics: bool = True,
        validate_enabledness: bool = False,
        links: Optional[LinkSpec] = None,
    ) -> None:
        if len(agents) != placement.agent_count:
            raise ConfigurationError(
                f"{len(agents)} agents supplied for a placement of "
                f"{placement.agent_count} homes"
            )
        self._placement = placement
        self._ring = Ring(placement.ring_size, links)
        self._agents: Dict[int, Agent] = dict(enumerate(agents))
        self._homes: Dict[int, int] = dict(enumerate(placement.homes))
        self._inboxes: Dict[int, List[object]] = {i: [] for i in self._agents}
        self._started: Dict[int, bool] = {i: False for i in self._agents}
        # Agent id -> state fingerprint at activation-log length
        # ``_fingerprinted``; see snapshot().
        self._fingerprints: Dict[int, Tuple[object, ...]] = {}
        self._fingerprinted = 0
        if scheduler is None:
            # Late import: the registry lazily imports the algorithm
            # modules, which themselves import this module.
            from repro.registry import build_scheduler

            scheduler = build_scheduler("sync")
        self._scheduler = scheduler
        self._trace = trace
        self._metrics = Metrics()
        self._collect_metrics = collect_metrics
        self._validate = validate_enabledness
        self._steps = 0
        self._activation_log: List[int] = []
        if max_steps is None:
            budget = _DEFAULT_STEP_SLACK * placement.ring_size * placement.agent_count
            max_steps = budget + 10_000
        self._max_steps = max_steps
        if memory_audit_interval < 1:
            raise ConfigurationError("memory audit interval must be >= 1")
        self._audit_interval = memory_audit_interval
        # Hot-path references into the ring's structures (see
        # Ring.fast_state for the synchronisation contract).
        fast = self._ring.fast_state()
        self._tokens = fast.tokens
        self._staying = fast.staying
        self._queues = fast.queues
        self._locations = fast.locations
        self._faults = fast.faults
        self._size = placement.ring_size
        # The paper's C0: every agent sits in the incoming buffer of its
        # home node, guaranteeing it acts there first.  Initial placement
        # is fault-free: faults apply to *moves* on links, not to the
        # paper's C0 buffer rule.
        for agent_id, home in self._homes.items():
            self._ring.enqueue(agent_id, home)
        # Live enabled set: initially the head of every non-empty queue.
        self._enabled: Set[int] = {queue[0] for queue in self._queues if queue}

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    @property
    def ring(self) -> Ring:
        """The ring substrate (read-mostly; mutate only via agent actions)."""
        return self._ring

    @property
    def links(self) -> Optional[LinkSpec]:
        """The active link-fault spec, or ``None`` on reliable links."""
        return self._ring.links

    @property
    def metrics(self) -> Metrics:
        """Metrics accumulated so far."""
        return self._metrics

    @property
    def placement(self) -> Placement:
        """The initial configuration this engine was built from."""
        return self._placement

    @property
    def scheduler(self) -> Scheduler:
        """The scheduler driving this engine's batches."""
        return self._scheduler

    @property
    def steps(self) -> int:
        """Atomic actions executed so far."""
        return self._steps

    @property
    def activation_log(self) -> Tuple[int, ...]:
        """The agent-id sequence of every atomic action so far.

        Feed it to :class:`repro.sim.scheduler.ReplayScheduler` to
        reproduce this execution exactly on a fresh engine.
        """
        return tuple(self._activation_log)

    def agent(self, agent_id: int) -> Agent:
        """Return the agent object with the given id."""
        return self._agents[agent_id]

    @property
    def agent_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._agents))

    def enabled_agents(self) -> List[int]:
        """Ids that can take an atomic action right now, sorted ascending.

        With active link faults the list also contains *link actor*
        pseudo-ids (``-(v + 1)`` for the link into node ``v``) whenever
        that link has pending work — a non-empty delay buffer or a
        phantom at the queue head.  On reliable links every id is a
        plain agent id, exactly as before.
        """
        return sorted(self._enabled)

    def recompute_enabled_agents(self) -> List[int]:
        """Rebuild the enabled set from first principles (O(k) oracle).

        This is the seed engine's full rescan, kept as the differential
        oracle for the incremental set: the two must agree after every
        batch (``validate_enabledness=True`` asserts exactly that).
        With link faults it additionally derives each link actor's
        enabledness from the delay buffers and queue heads, and treats
        lost and buffer-held agents as disabled.
        """
        faults = self._faults
        enabled: List[int] = []
        if faults is not None:
            for node in range(self._size):
                queue = self._queues[node]
                if faults.buffers[node] or (queue and queue[0] == PHANTOM):
                    enabled.append(-(node + 1))
            enabled.sort()
        for agent_id, agent in sorted(self._agents.items()):
            if agent.halted:
                continue
            if faults is not None and agent_id in faults.lost:
                continue
            kind, node = self._ring.locate(agent_id)
            if kind == "queue":
                if self._ring.queue_head(node) == agent_id:
                    enabled.append(agent_id)
            elif kind == "buffer":
                pass  # held by the link until its delay drains
            else:
                if not agent.suspended or self._inboxes[agent_id]:
                    enabled.append(agent_id)
        return enabled

    def check_enabledness_invariant(self) -> None:
        """Raise :class:`SimulationError` if incremental != recomputed."""
        incremental = sorted(self._enabled)
        recomputed = self.recompute_enabled_agents()
        if incremental != recomputed:
            raise SimulationError(
                "incremental enabled set diverged from the full recompute: "
                f"incremental={incremental} recomputed={recomputed} "
                f"at step {self._steps}"
            )

    @property
    def quiescent(self) -> bool:
        """True when no agent is enabled (Definitions 1 and 2 terminal state)."""
        return not self._enabled

    def run(self) -> Metrics:
        """Run to quiescence; raise on exceeding the step budget."""
        while self._enabled:
            self._run_batch()
        return self._metrics

    def run_rounds(self, rounds: int) -> Metrics:
        """Run at most ``rounds`` scheduler batches (may stop earlier).

        Boundary contract: ``rounds <= 0`` runs nothing and returns the
        current metrics unchanged, and an engine that is already
        quiescent stays untouched (the scheduler is never consulted for
        an empty enabled set, so no scheduler RNG draws happen on
        boundary calls — :mod:`repro.sim.scheduler`'s consumption-order
        contract relies on this).
        """
        for _ in range(rounds):
            if not self._enabled:
                break
            self._run_batch()
        return self._metrics

    def run_until(self, predicate, max_rounds: int = 1_000_000) -> bool:
        """Run batches until ``predicate(engine)`` holds or quiescence.

        Returns ``True`` when the predicate fired, ``False`` when the
        run quiesced first.  Useful for watching for intermediate
        conditions ("some agent suspended", "half the agents halted")
        without writing the loop by hand.

        Boundary contract:

        * the predicate is evaluated *before* the first round — a
          predicate that already holds returns ``True`` with zero
          rounds run (and zero scheduler draws),
        * each evaluation happens at a batch boundary, exactly once per
          boundary: on quiescence the predicate was just found false at
          the top of the loop, so the run returns ``False`` without
          re-evaluating it (a side-effectful predicate is never
          double-called at the same boundary),
        * ``max_rounds`` elapsing performs one final boundary
          evaluation and returns its verdict; ``max_rounds=0`` is
          therefore a pure predicate probe that runs nothing.
        """
        for _ in range(max_rounds):
            if predicate(self):
                return True
            if not self._enabled:
                return False
            self._run_batch()
        return predicate(self)

    def iter_rounds(self):
        """Yield ``self`` after every scheduler batch until quiescence.

        Enables ``for _ in engine.iter_rounds(): ...`` observation loops
        (the timeline recorder and several examples use this shape).
        """
        while self._enabled:
            self._run_batch()
            yield self

    def step(self, agent_id: int) -> None:
        """Execute one atomic action of ``agent_id``, bypassing the scheduler.

        This is the single-step driver the model checker and property
        tests use to explore *chosen* interleavings: the caller picks any
        currently enabled agent and the engine performs exactly one
        atomic action.  Raises :class:`SimulationError` when the agent is
        not enabled (disabled, halted, mid-queue, or unknown).
        """
        if agent_id not in self._enabled:
            raise SimulationError(
                f"agent {agent_id} is not enabled "
                f"(enabled: {sorted(self._enabled)})"
            )
        if agent_id < 0:
            self._activate_link(agent_id)
        else:
            self._activate(agent_id)
        if self._validate:
            self.check_enabledness_invariant()

    def fork(self) -> "Engine":
        """Return an independent copy of the full simulation state.

        The copy-on-branch primitive of the model checker: the clone
        owns deep copies of the ring, inboxes and enabled set, and a
        field copy of each agent (:meth:`repro.sim.agent.Agent.fork`),
        so stepping the clone never disturbs the original.

        The clone shares the (stateless from its point of view)
        scheduler object but starts with fresh, empty metrics and no
        trace recorder — forks exist for state-space exploration, not
        accounting.  The activation log and step count carry over, so a
        violating fork's :attr:`activation_log` is directly replayable.
        """
        clone = Engine.__new__(Engine)
        clone._placement = self._placement
        clone._ring = self._ring.clone()
        clone._agents = {
            agent_id: agent.fork() for agent_id, agent in self._agents.items()
        }
        clone._homes = dict(self._homes)
        # Message payloads are immutable values; a shallow list copy
        # fully detaches the inboxes.
        clone._inboxes = {
            agent_id: list(inbox) for agent_id, inbox in self._inboxes.items()
        }
        clone._started = dict(self._started)
        clone._scheduler = self._scheduler
        clone._trace = None
        clone._metrics = Metrics()
        clone._collect_metrics = self._collect_metrics
        clone._validate = self._validate
        clone._steps = self._steps
        clone._activation_log = list(self._activation_log)
        clone._max_steps = self._max_steps
        clone._audit_interval = self._audit_interval
        fast = clone._ring.fast_state()
        clone._tokens = fast.tokens
        clone._staying = fast.staying
        clone._queues = fast.queues
        clone._locations = fast.locations
        clone._faults = fast.faults
        clone._size = self._size
        clone._enabled = set(self._enabled)
        clone._fingerprints = dict(self._fingerprints)
        clone._fingerprinted = self._fingerprinted
        return clone

    def snapshot(self) -> Configuration:
        """Return the current global configuration ``C = (S, T, M, P, Q)``.

        The snapshot carries full message contents (``inboxes``) and the
        per-agent started flags on top of the classic 5-tuple, so its
        canonical key (see :meth:`Configuration.canonical_key`)
        identifies the global state exactly — the model checker's
        memoisation key and the fuzzer's coverage key.

        It also carries each agent's packed payload bytes, looked up in
        the process-wide payload memo of :func:`encode_payload`.  An
        agent's declared fields change only when it acts, so only the
        agents in the activation log since the previous snapshot (of
        this engine or of the engine it was forked from) are
        fingerprinted again; the others keep their fingerprint.
        """
        fingerprints = self._fingerprints
        log = self._activation_log
        stale = set(log[self._fingerprinted:]) if fingerprints else self._agents
        for agent_id in stale:
            if agent_id >= 0:  # link actors have negative ids
                fingerprints[agent_id] = self._agents[agent_id].state_fingerprint()
        self._fingerprinted = len(log)
        agent_states = dict(fingerprints)
        inboxes = {}
        payload_bytes = {}
        started = self._started
        for agent_id, inbox in self._inboxes.items():
            inbox = tuple(inbox)
            inboxes[agent_id] = inbox
            payload_bytes[agent_id] = encode_payload(
                (started[agent_id], fingerprints[agent_id], inbox)
            )
        return Configuration(
            ring_size=self._size,
            agent_states=agent_states,
            tokens=tuple(self._tokens),
            inbox_sizes={agent_id: len(inbox) for agent_id, inbox in inboxes.items()},
            staying={
                node: tuple(sorted(agents)) if agents else ()
                for node, agents in enumerate(self._staying)
            },
            queues={node: tuple(queue) for node, queue in enumerate(self._queues)},
            inboxes=inboxes,
            started=dict(started),
            faults=None if self._faults is None else self._faults.snapshot(),
            payload_bytes=payload_bytes,
        )

    def pending_messages(self) -> int:
        """Undelivered messages across all agents, without a snapshot."""
        return sum(len(inbox) for inbox in self._inboxes.values())

    def final_positions(self) -> Dict[int, int]:
        """Map agent id -> node for all staying agents (post-quiescence)."""
        positions = {}
        faults = self._faults
        for agent_id in self._agents:
            if faults is not None and agent_id in faults.lost:
                raise SimulationError(
                    f"agent {agent_id} was lost in transit (link fault)"
                )
            kind, node = self._ring.locate(agent_id)
            if kind != "node":
                raise SimulationError(
                    f"agent {agent_id} is still in transit toward node {node}"
                )
            positions[agent_id] = node
        return positions

    # ------------------------------------------------------------------
    # Execution internals
    # ------------------------------------------------------------------

    def _run_batch(self) -> None:
        enabled = self._enabled
        batch = self._scheduler.next_batch(sorted(enabled))
        if not batch:
            raise SimulationError("scheduler returned an empty batch")
        activated = False
        for agent_id in batch:
            # An earlier activation in the batch can disable a later
            # agent (e.g. by moving into the queue slot ahead of it).
            if agent_id in enabled:
                if agent_id < 0:
                    self._activate_link(agent_id)
                else:
                    self._activate(agent_id)
                activated = True
        if not activated:
            # A well-behaved batch is a subsequence of ``enabled``, so its
            # first entry is always still enabled.  Zero activations means
            # the scheduler named stale/unknown agents — fail loudly
            # instead of looping forever without consuming step budget.
            raise SimulationError(
                f"scheduler batch {batch!r} activated no enabled agent "
                f"(enabled: {sorted(enabled)})"
            )
        if self._scheduler.counts_time and self._collect_metrics:
            self._metrics.record_round()
        if self._validate:
            self.check_enabledness_invariant()

    def _activate(self, agent_id: int) -> None:
        steps = self._steps + 1
        self._steps = steps
        self._activation_log.append(agent_id)
        if steps > self._max_steps:
            raise SimulationLimitExceeded(
                f"exceeded {self._max_steps} atomic actions without quiescence "
                f"(n={self._size}, k={len(self._agents)}, "
                f"scheduler={self._scheduler.describe()})"
            )
        agent = self._agents[agent_id]
        enabled = self._enabled
        locations = self._locations
        tracing = self._trace is not None
        metrics = self._metrics if self._collect_metrics else None

        enabled.discard(agent_id)
        code = locations.pop(agent_id)
        if code < 0:
            # Arrival: the actor is the queue head (only heads are enabled).
            node = -code - 1
            arrived = True
            queue = self._queues[node]
            queue.popleft()
            if queue:
                head = queue[0]
                if head >= 0:
                    enabled.add(head)  # the new head can act now
                else:
                    # A phantom surfaced at the head: the link actor
                    # consumes it (only reachable with active faults).
                    enabled.add(-(node + 1))
            if tracing:
                self._record(TraceEventKind.ARRIVE, agent_id, node)
        else:
            node = code
            arrived = False
            self._staying[node].discard(agent_id)
            if tracing:
                self._record(TraceEventKind.ACT_IN_PLACE, agent_id, node)

        inbox = self._inboxes[agent_id]
        if inbox:
            messages = tuple(inbox)
            inbox.clear()
            if metrics is not None:
                metrics.record_delivery(len(messages))
        else:
            messages = ()
        staying_here = self._staying[node]
        view = NodeView(
            tokens=self._tokens[node],
            agents_present=len(staying_here),
            messages=messages,
            arrived=arrived,
        )

        if self._started[agent_id]:
            action = agent.act(view)
        else:
            self._started[agent_id] = True
            action = agent.start(view)

        # Apply steps 3-5 (inlined: this runs once per atomic action).
        if action.release_token:
            self._tokens[node] += 1
            if metrics is not None:
                metrics.record_token()
            if tracing:
                self._record(TraceEventKind.TOKEN, agent_id, node)
        payload = action.broadcast
        if payload is not None:
            recipients = sorted(staying_here)
            inboxes = self._inboxes
            agents = self._agents
            for recipient in recipients:
                recipient_inbox = inboxes[recipient]
                if not recipient_inbox and agents[recipient].suspended:
                    # Wake: halted agents are never suspended, so this
                    # only ever re-enables genuinely sleeping agents.
                    enabled.add(recipient)
                    if tracing:
                        self._record(TraceEventKind.WAKE, recipient, node)
                recipient_inbox.append(payload)
            if metrics is not None:
                metrics.record_broadcast(len(recipients))
            if tracing:
                self._record(TraceEventKind.BROADCAST, agent_id, node, detail=payload)
        if action.move is Move.FORWARD:
            destination = node + 1
            if destination == self._size:
                destination = 0
            if self._faults is not None:
                self._move_with_faults(agent_id, destination)
            else:
                queue = self._queues[destination]
                queue.append(agent_id)
                locations[agent_id] = -(destination + 1)
                if len(queue) == 1:
                    enabled.add(agent_id)  # entered an empty queue: head at once
            if metrics is not None:
                metrics.record_move(agent_id)
            if tracing:
                self._record(TraceEventKind.MOVE, agent_id, node)
        else:
            staying_here.add(agent_id)
            locations[agent_id] = node
            if not (action.halt or action.suspend):
                # The inbox is empty here (drained above; broadcasts never
                # target the actor), so a suspending agent is disabled
                # until a wake and a halting agent is disabled forever.
                enabled.add(agent_id)
            if tracing:
                self._record(TraceEventKind.SETTLE, agent_id, node)
                if action.halt:
                    self._record(TraceEventKind.HALT, agent_id, node)
                if action.suspend:
                    self._record(TraceEventKind.SUSPEND, agent_id, node)
        if metrics is not None:
            metrics.record_activation(agent_id)
            if (
                steps % self._audit_interval == 0
                or action.halt
                or action.suspend
            ):
                metrics.record_memory(agent_id, agent.memory_bits())

    def _move_with_faults(self, agent_id: int, destination: int) -> None:
        """Place a forward-moving agent on the (faulty) link into ``destination``.

        One deterministic draw sequence per move event, keyed on the
        global move ordinal (see :mod:`repro.ring.faults` for why the
        key must be label-invariant): loss first (budget permitting),
        then duplication, then the delay of the surviving copy.  A
        delay of zero onto an empty buffer is the reliable fast path —
        direct enqueue, identical to the fault-free engine — so a
        ``delay=0`` spec with loss/dup budgets spent behaves exactly
        like reliable links from that point on.
        """
        faults = self._faults
        spec = faults.spec
        ordinal = faults.ordinal
        faults.ordinal = ordinal + 1
        if faults.loss_used < spec.loss and spec.draw_loss(ordinal):
            # Dropped in transit: the agent is nowhere on the ring and
            # never acts again (its entry in _locations stays popped).
            faults.loss_used += 1
            faults.lost.add(agent_id)
            return
        duplicate = faults.dup_used < spec.dup and spec.draw_dup(ordinal)
        if duplicate:
            faults.dup_used += 1
        delay = spec.draw_delay(ordinal)
        buffer = faults.buffers[destination]
        if delay == 0 and not buffer:
            queue = self._queues[destination]
            queue.append(agent_id)
            self._locations[agent_id] = -(destination + 1)
            if queue[0] == agent_id:
                self._enabled.add(agent_id)
            if duplicate:
                queue.append(PHANTOM)
        else:
            # FIFO delay buffer: the entry (and its phantom, riding
            # immediately behind) drains into the queue in send order.
            buffer.append([agent_id, delay])
            self._locations[agent_id] = -(destination + 1 + self._size)
            if duplicate:
                buffer.append([PHANTOM, 0])
            self._enabled.add(-(destination + 1))

    def _activate_link(self, actor_id: int) -> None:
        """One atomic action of the link actor into node ``-(actor_id) - 1``.

        Deterministic priority: a phantom at the queue head is consumed
        first; otherwise the delay buffer's head counts down one tick
        (transferring to the queue tail when it reaches zero).  Link
        actions count as steps and appear in the activation log — they
        are schedulable, replayable choices — but touch no per-agent
        metrics.
        """
        steps = self._steps + 1
        self._steps = steps
        self._activation_log.append(actor_id)
        if steps > self._max_steps:
            raise SimulationLimitExceeded(
                f"exceeded {self._max_steps} atomic actions without quiescence "
                f"(n={self._size}, k={len(self._agents)}, "
                f"scheduler={self._scheduler.describe()})"
            )
        node = -actor_id - 1
        faults = self._faults
        enabled = self._enabled
        queue = self._queues[node]
        if queue and queue[0] == PHANTOM:
            queue.popleft()
            if queue:
                head = queue[0]
                if head >= 0:
                    enabled.add(head)  # the duplicate's victim surfaces
        else:
            delivered = self._ring.tick_buffer(node)
            if delivered is not None and delivered >= 0:
                if queue[0] == delivered:
                    enabled.add(delivered)
        if queue and queue[0] == PHANTOM:
            pending = True
        else:
            pending = bool(faults.buffers[node])
        if pending:
            enabled.add(actor_id)
        else:
            enabled.discard(actor_id)

    def _record(
        self,
        kind: TraceEventKind,
        agent_id: int,
        node: int,
        detail: Optional[object] = None,
    ) -> None:
        self._trace.record(
            TraceEvent(
                step=self._steps,
                kind=kind,
                agent_id=agent_id,
                node=node,
                detail=detail,
            )
        )
