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

The engine is the only code that writes the
:class:`~repro.ring.network.Ring` fields, and it checks no single
write: ``__init__`` places C0, ``_activate`` applies an agent's action
and ``_activate_link`` a link actor's.  ``repro mc`` and ``repro fuzz``
check the resulting state after every action (:mod:`repro.mc.oracle`):
:class:`~repro.mc.properties.FifoLinkIntegrity` (no overtaking),
:class:`~repro.mc.properties.StructuralIntegrity` (one place per agent),
:class:`~repro.mc.properties.TokenMonotonicity` and
:class:`~repro.mc.properties.EnabledSetConsistency` (the live set below
against :meth:`Engine.recompute_enabled_agents`).

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


def _default_step_budget(n: int, k: int) -> int:
    """Default ``max_steps`` of an ``n``-node, ``k``-agent run.

    The paper's algorithms use O(kn) moves and comparable numbers of
    waits; 64x that with slack catches livelocks without tripping on
    legitimate executions.  The batch engine uses the same budget.
    """
    return 64 * n * k + 10_000


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
        self._bind(Ring(placement.ring_size, links))
        self._agents: Dict[int, Agent] = dict(enumerate(agents))
        self._inboxes: Dict[int, List[object]] = {i: [] for i in self._agents}
        self._started: Dict[int, bool] = {i: False for i in self._agents}
        # The last snapshot and the activation-log length it was taken
        # at: the base the next snapshot re-encodes from (see snapshot()).
        self._last: Optional[Configuration] = None
        self._snapshotted = 0
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
            max_steps = _default_step_budget(
                placement.ring_size, placement.agent_count
            )
        self._max_steps = max_steps
        if memory_audit_interval < 1:
            raise ConfigurationError("memory audit interval must be >= 1")
        self._audit_interval = memory_audit_interval
        # The paper's C0: every agent sits in the incoming buffer of its
        # home node, guaranteeing it acts there first.  Initial placement
        # is fault-free: faults apply to *moves* on links, not to the
        # paper's C0 buffer rule.
        for agent_id, home in enumerate(placement.homes):
            self._queues[home].append(agent_id)
            self._locations[agent_id] = -(home + 1)
        # Live enabled set: initially the head of every non-empty queue.
        self._enabled: Set[int] = {queue[0] for queue in self._queues if queue}

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    @property
    def ring(self) -> Ring:
        """The ring state (read it; only the engine's actions write it)."""
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
        So does the last :meth:`snapshot`, shared rather than copied: the
        clone's next snapshot re-encodes only what the clone's own
        actions touched.
        """
        clone = Engine.__new__(Engine)
        clone._placement = self._placement
        clone._bind(self._ring.clone())
        clone._agents = {
            agent_id: agent.fork() for agent_id, agent in self._agents.items()
        }
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
        clone._enabled = set(self._enabled)
        # Snapshots are immutable and each one builds new maps, so the
        # clone shares the last one: copy-on-write for free.
        clone._last = self._last
        clone._snapshotted = self._snapshotted
        return clone

    def snapshot(self) -> Configuration:
        """Return the current global configuration ``C = (S, T, M, P, Q)``.

        The snapshot carries full message contents (``inboxes``) and the
        per-agent started flags on top of the classic 5-tuple, so its
        canonical key (see :meth:`Configuration.canonical_key`)
        identifies the global state exactly — the model checker's
        memoisation key and the fuzzer's coverage key.

        It is built from the previous snapshot (of this engine or of the
        engine it was forked from), re-encoding only what the actions
        since then can have changed:

        * agents in the activation log since then are fingerprinted
          again; the others keep their fingerprint;
        * after exactly one agent action on a reliable ring, the
          *dirty* nodes are the actor's action node ``v`` (its tokens,
          staying set and incoming queue) and the node whose queue the
          actor entered, and the dirty agents are the actor and the
          agents staying at ``v`` (the only broadcast recipients).
          Their map entries, packed payload bytes (from the process-wide
          memo of :func:`encode_payload`) and, if the previous snapshot
          was packed, node blocks are rebuilt; every other entry and
          block is shared with the previous snapshot;
        * everything is dirty on the first snapshot, after more than one
          action (``run_rounds``, replays) and on a faulty ring (link
          actors, delay buffers and losses touch other nodes).

        With no action since the previous snapshot it is returned again.
        State must therefore change only through :meth:`step` and the
        ``run`` family; ``tests/test_payload_cache.py`` checks every
        field against a snapshot that carries nothing over.
        """
        last = self._last
        log = self._activation_log
        since = len(log) - self._snapshotted
        if last is not None and not since:
            return last
        agents = self._agents
        if last is None:
            agent_states: Dict[int, object] = {}
            refingerprint = agents
        else:
            agent_states = dict(last.agent_states)
            refingerprint = set(log[self._snapshotted :])
        for agent_id in refingerprint:
            if agent_id >= 0:  # link actors have negative ids
                agent_states[agent_id] = agents[agent_id].state_fingerprint()
        # One agent action on a reliable ring touches at most two nodes;
        # anything else re-encodes every node.
        code = self._locations.get(log[-1]) if since == 1 else None
        if last is None or code is None or self._faults is not None:
            base = None
            nodes = range(self._size)
            touched = agents
            inboxes: Dict[int, Tuple[object, ...]] = {}
            inbox_sizes: Dict[int, int] = {}
            payload_bytes: Dict[int, bytes] = {}
            staying: Dict[int, Tuple[int, ...]] = {}
            queues: Dict[int, Tuple[int, ...]] = {}
        else:
            base = last
            if code >= 0:
                node = code  # the actor stayed
                nodes = (node,)
            else:
                entered = -code - 1
                node = (entered or self._size) - 1
                nodes = (node,) if node == entered else (node, entered)
            touched = (log[-1], *self._staying[node])
            inboxes = dict(last.inboxes)
            inbox_sizes = dict(last.inbox_sizes)
            payload_bytes = dict(last.payload_bytes)
            staying = dict(last.staying)
            queues = dict(last.queues)
        started = self._started
        live_inboxes = self._inboxes
        for agent_id in touched:
            inbox = tuple(live_inboxes[agent_id])
            inboxes[agent_id] = inbox
            inbox_sizes[agent_id] = len(inbox)
            payload_bytes[agent_id] = encode_payload(
                (started[agent_id], agent_states[agent_id], inbox)
            )
        live_staying = self._staying
        live_queues = self._queues
        for node in nodes:
            here = live_staying[node]
            staying[node] = tuple(sorted(here)) if here else ()
            queues[node] = tuple(live_queues[node])
        snapshot = Configuration(
            ring_size=self._size,
            agent_states=agent_states,
            tokens=tuple(self._tokens),
            inbox_sizes=inbox_sizes,
            staying=staying,
            queues=queues,
            inboxes=inboxes,
            started=dict(started),
            faults=None if self._faults is None else self._faults.snapshot(),
        )
        snapshot._carry(payload_bytes, base, nodes)
        self._last = snapshot
        self._snapshotted = len(log)
        return snapshot

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

    def _bind(self, ring: Ring) -> None:
        """Own ``ring``, and keep the hot path's references to its fields."""
        self._ring = ring
        self._tokens = ring.tokens
        self._staying = ring.staying
        self._queues = ring.queues
        self._locations = ring.locations
        self._faults = ring.faults
        self._size = ring.size

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
            buffer = faults.buffers[node]
            head = buffer[0]
            if head[1] > 0:
                head[1] -= 1
            if not head[1]:
                # The delay drained: the entry moves to the queue tail,
                # in send order (FIFO is preserved under pure delay).
                buffer.popleft()
                payload = head[0]
                queue.append(payload)
                if payload >= 0:
                    self._locations[payload] = -(node + 1)
                    if queue[0] == payload:
                        enabled.add(payload)
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
