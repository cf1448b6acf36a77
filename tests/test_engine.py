"""Engine semantics tests: atomic actions, messages, quiescence, caps."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationError, SimulationLimitExceeded
from repro.ring.placement import Placement
from repro.sim.actions import Action
from repro.sim.agent import Agent
from repro.sim.engine import Engine
from repro.sim.scheduler import RandomScheduler, SynchronousScheduler
from repro.sim.trace import TraceEventKind, TraceRecorder


class Sitter(Agent):
    """Releases its token and halts at home immediately."""

    def transition(self, view):
        self.saw_tokens = view.tokens
        return Action.halt_here(broadcast=None)


class Hopper(Agent):
    """Moves ``hops`` nodes then halts."""

    SCALARS = ("hops",)

    def __init__(self, hops: int) -> None:
        super().__init__()
        self.hops = hops
        self.left = hops

    def transition(self, view):
        if self.left == 0:
            return Action.halt_here()
        self.left -= 1
        return Action.move_forward()


class TokenDropper(Agent):
    """Releases a token at home, walks one circuit counting tokens, halts."""

    SCALARS = ("ring_size", "tokens_seen")

    def __init__(self, ring_size: int) -> None:
        super().__init__()
        self.ring_size = ring_size
        self.tokens_seen = 0
        self.moved = 0

    def transition(self, view):
        if self.stage == "start":
            self.stage = "circuit"
            return Action.move_forward(release_token=True)
        self.moved += 1
        if view.tokens > 0:
            self.tokens_seen += 1
        if self.moved == self.ring_size:
            return Action.halt_here()
        return Action.move_forward()


class Caller(Agent):
    """Moves next to its neighbour and shouts a message, then halts."""

    def __init__(self, hops: int, payload: object) -> None:
        super().__init__()
        self.left = hops
        self.payload = payload

    def transition(self, view):
        if self.left == 0:
            return Action.halt_here(broadcast=self.payload)
        self.left -= 1
        return Action.move_forward()


class Listener(Agent):
    """Suspends at home until any message arrives, then halts."""

    def __init__(self) -> None:
        super().__init__()
        self.heard = None

    def transition(self, view):
        if self.stage == "start" or not view.messages:
            self.stage = "listening"
            return Action.suspend_here()
        self.heard = view.messages
        return Action.halt_here()


class Spinner(Agent):
    """Moves forever — used to test the step safety cap."""

    def transition(self, view):
        return Action.move_forward()


def test_initial_buffer_rule_first_view_has_no_token():
    # The agent acts at its home before anyone can have released there.
    placement = Placement(ring_size=4, homes=(0, 2))
    agents = [Sitter(), Sitter()]
    engine = Engine(placement, agents)
    engine.run()
    assert agents[0].saw_tokens == 0 and agents[1].saw_tokens == 0


def test_agent_count_must_match_placement():
    with pytest.raises(ConfigurationError):
        Engine(Placement(ring_size=4, homes=(0, 2)), [Sitter()])


def test_moves_and_positions():
    placement = Placement(ring_size=6, homes=(0, 3))
    agents = [Hopper(2), Hopper(1)]
    engine = Engine(placement, agents)
    metrics = engine.run()
    assert metrics.total_moves == 3
    assert engine.final_positions() == {0: 2, 1: 4}
    assert engine.quiescent


def test_token_visibility_around_circuit():
    placement = Placement(ring_size=5, homes=(0, 2))
    agents = [TokenDropper(5), TokenDropper(5)]
    engine = Engine(placement, agents)
    engine.run()
    # Each agent sees both tokens (its own on return, the other's en route).
    assert agents[0].tokens_seen == 2
    assert agents[1].tokens_seen == 2


def test_broadcast_wakes_suspended_listener():
    placement = Placement(ring_size=6, homes=(0, 3))
    caller, listener = Caller(3, "ping"), Listener()
    engine = Engine(placement, [caller, listener])
    engine.run()
    assert listener.heard == ("ping",)
    assert listener.halted and caller.halted


def test_broadcast_not_delivered_to_self():
    placement = Placement(ring_size=4, homes=(1,))
    caller = Caller(0, "echo")
    engine = Engine(placement, [caller])
    engine.run()
    snapshot = engine.snapshot()
    assert snapshot.total_messages_pending() == 0


def test_in_transit_agents_are_invisible():
    # The listener suspends; the hopper passes through the listener's
    # node without waking it (no broadcast) and without being seen.
    placement = Placement(ring_size=4, homes=(0, 2))
    hopper, listener = Hopper(4), Listener()
    engine = Engine(placement, [hopper, listener], max_steps=200)
    engine.run_rounds(50)
    assert hopper.halted
    assert listener.suspended  # never woken; passing hopper is invisible
    assert engine.quiescent


def test_quiescence_with_suspended_agent():
    placement = Placement(ring_size=4, homes=(0,))
    listener = Listener()
    engine = Engine(placement, [listener])
    engine.run()  # suspends immediately; no messages ever arrive
    assert engine.quiescent
    assert listener.suspended and not listener.halted


def test_step_cap_raises():
    placement = Placement(ring_size=4, homes=(0,))
    engine = Engine(placement, [Spinner()], max_steps=100)
    with pytest.raises(SimulationLimitExceeded):
        engine.run()


def test_final_positions_rejects_in_transit():
    placement = Placement(ring_size=8, homes=(0,))
    engine = Engine(placement, [Hopper(5)])
    engine.run_rounds(2)
    with pytest.raises(SimulationError):
        engine.final_positions()


def test_snapshot_structure():
    placement = Placement(ring_size=4, homes=(0, 2))
    engine = Engine(placement, [Sitter(), Sitter()])
    before = engine.snapshot()
    assert before.all_queues_empty() is False  # initial buffers are queues
    engine.run()
    after = engine.snapshot()
    assert after.all_queues_empty()
    assert after.tokens == (0, 0, 0, 0)  # Sitter halts without release
    assert after.occupied_nodes() == (0, 2)
    local = after.local(0)
    assert len(local.staying_states) == 1


def test_trace_records_lifecycle():
    placement = Placement(ring_size=6, homes=(0, 3))
    trace = TraceRecorder()
    engine = Engine(placement, [Caller(3, "hi"), Listener()], trace=trace)
    engine.run()
    kinds = {event.kind for event in trace.events}
    assert TraceEventKind.ARRIVE in kinds
    assert TraceEventKind.MOVE in kinds
    assert TraceEventKind.BROADCAST in kinds
    assert TraceEventKind.HALT in kinds
    assert TraceEventKind.SUSPEND in kinds
    assert TraceEventKind.WAKE in kinds
    broadcasts = trace.of_kind(TraceEventKind.BROADCAST)
    assert broadcasts[0].detail == "hi"


def test_synchronous_rounds_measure_time():
    placement = Placement(ring_size=8, homes=(0,))
    engine = Engine(placement, [Hopper(5)], scheduler=SynchronousScheduler())
    metrics = engine.run()
    # 5 hops + final halt action: 6 rounds.
    assert metrics.rounds == 6


def test_random_scheduler_reaches_same_outcome():
    placement = Placement(ring_size=6, homes=(0, 3))
    engine = Engine(
        placement, [Hopper(2), Hopper(1)], scheduler=RandomScheduler(seed=3)
    )
    metrics = engine.run()
    assert metrics.rounds is None  # async schedulers do not measure time
    assert engine.final_positions() == {0: 2, 1: 4}


def test_memory_audit_interval_validation():
    placement = Placement(ring_size=4, homes=(0,))
    with pytest.raises(ConfigurationError):
        Engine(placement, [Sitter()], memory_audit_interval=0)


def test_fifo_no_overtaking_two_hoppers():
    # Both hoppers traverse the same arc; the one starting behind can
    # never arrive ahead of the other at any shared node.
    placement = Placement(ring_size=8, homes=(0, 1))
    trace = TraceRecorder(keep=lambda e: e.kind is TraceEventKind.ARRIVE)
    engine = Engine(placement, [Hopper(6), Hopper(6)], trace=trace)
    engine.run()
    arrivals = {}
    for order, event in enumerate(trace.events):
        arrivals.setdefault(event.node, []).append((order, event.agent_id))
    for node, entries in arrivals.items():
        ids = [agent_id for _, agent_id in entries]
        if len(ids) == 2:
            # Agent 1 started at node 1, ahead of agent 0: it must
            # arrive first wherever both pass.
            assert ids == [1, 0]


def test_single_node_ring_edge_case():
    # n = 1, k = 1: the agent's circuit is one hop back to itself.
    placement = Placement(ring_size=1, homes=(0,))
    from repro.experiments.runner import run_experiment

    for algorithm in ("known_k_full", "known_n_full", "known_k_logspace"):
        result = run_experiment(algorithm, placement)
        assert result.ok, f"{algorithm}: {result.report.describe()}"
        assert result.final_positions == (0,)
