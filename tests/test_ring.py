"""Unit tests for the ring state: its size check, location decoding and clone.

The ring has no mutators (the engine writes its fields), so the decoding
tests write the fields directly to build the states they decode, and
``TestEngineWrites`` drives an engine to check what each action writes.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.ring.faults import PHANTOM, LinkSpec, link_actor
from repro.ring.network import Ring
from repro.ring.placement import Placement
from repro.sim.actions import Action, Move
from repro.sim.agent import Agent
from repro.sim.engine import Engine


class TestStructure:
    def test_size(self):
        ring = Ring(5)
        assert ring.size == 5
        assert len(ring.tokens) == len(ring.staying) == len(ring.queues) == 5

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            Ring(0)


class TestLocate:
    def test_decodes_node_queue_and_buffer_codes(self):
        ring = Ring(4)
        # code -> place: node i is i, queue into i is -(i + 1), the
        # delay buffer into i is -(i + 1 + n); both ends of each range.
        expected = {
            0: ("node", 0), 3: ("node", 3),
            -1: ("queue", 0), -4: ("queue", 3),
            -5: ("buffer", 0), -8: ("buffer", 3),
        }
        ring.locations.update({agent: code for agent, code in enumerate(expected)})
        for agent, place in enumerate(expected.values()):
            assert ring.locate(agent) == place

    def test_locate_unknown_agent(self):
        ring = Ring(4)
        with pytest.raises(SimulationError, match="agent 42 is not on the ring"):
            ring.locate(42)


class TestQueues:
    def test_queue_head(self):
        ring = Ring(4)
        ring.queues[1].extend((10, 11))
        assert ring.queue_head(1) == 10

    def test_queue_head_of_empty_queue(self):
        ring = Ring(4)
        with pytest.raises(SimulationError, match="queue into node 0 is empty"):
            ring.queue_head(0)

    def test_all_queues_empty(self):
        ring = Ring(3)
        assert ring.all_queues_empty()
        ring.staying[1].add(1)
        assert ring.all_queues_empty()
        ring.queues[0].append(1)
        assert not ring.all_queues_empty()


class TestClone:
    def test_clone_is_independent(self):
        ring = Ring(4)
        ring.tokens[0] = 1
        ring.staying[0].add(1)
        ring.queues[2].append(2)
        ring.locations.update({1: 0, 2: -3})
        other = ring.clone()
        assert other.size == 4
        assert other.faults is None
        assert (other.tokens, other.staying, other.queues, other.locations) == (
            ring.tokens, ring.staying, ring.queues, ring.locations
        )
        other.tokens[1] = 1
        other.staying[0].add(3)
        other.queues[2].append(3)
        other.locations[3] = 0
        assert ring.tokens == [1, 0, 0, 0]
        assert ring.staying[0] == {1}
        assert list(ring.queues[2]) == [2]
        assert ring.locations == {1: 0, 2: -3}

    def test_clone_copies_the_faults_block(self):
        spec = LinkSpec(delay=2, loss=1, dup=1)
        ring = Ring(3, spec)
        faults = ring.faults
        faults.buffers[1].append([5, 2])
        faults.lost.add(6)
        faults.ordinal, faults.loss_used, faults.dup_used = 4, 1, 1
        ring.queues[2].append(PHANTOM)
        other = ring.clone()
        assert other.links is spec
        assert other.faults is not faults
        assert other.faults.snapshot() == faults.snapshot()
        other.faults.buffers[1][0][1] -= 1
        other.faults.buffers[0].append([PHANTOM, 0])
        other.faults.lost.add(7)
        other.faults.ordinal += 1
        assert faults.snapshot() == (
            ((), ((5, 2),), ()), (6,), 4, 1, 1
        )
        assert list(other.queues[2]) == [PHANTOM]


class Scripted(Agent):
    """Plays a fixed list of actions, one per activation."""

    def __init__(self, *actions: Action) -> None:
        super().__init__()
        self.script = list(actions)

    def transition(self, view):
        return self.script.pop(0)


FORWARD = Action.move_forward()
STAY = Action.stay()


class TestEngineWrites:
    """The engine is the ring's only writer: the fields after each action."""

    def test_c0_queues_each_agent_at_home(self):
        engine = Engine(Placement(ring_size=8, homes=(0, 3, 5)), [Scripted()] * 3)
        ring = engine.ring
        assert [list(queue) for queue in ring.queues] == [
            [0], [], [], [1], [], [2], [], []
        ]
        assert [ring.locate(agent) for agent in range(3)] == [
            ("queue", 0), ("queue", 3), ("queue", 5)
        ]
        assert engine.enabled_agents() == [0, 1, 2]

    def test_release_is_monotone(self):
        drop_and_stay = Action(release_token=True)
        drop_and_go = Action(release_token=True, move=Move.FORWARD)
        engine = Engine(
            Placement(ring_size=4, homes=(2,)),
            [Scripted(drop_and_stay, drop_and_go, STAY)],
        )
        ring = engine.ring
        counts = []
        for _ in range(3):
            engine.step(0)
            counts.append(list(ring.tokens))
        assert counts == [[0, 0, 1, 0], [0, 0, 2, 0], [0, 0, 2, 0]]

    def test_fifo_order(self):
        engine = Engine(
            Placement(ring_size=8, homes=(0, 1)),
            [Scripted(FORWARD, FORWARD, FORWARD), Scripted(FORWARD, FORWARD)],
        )
        ring = engine.ring
        for agent in (1, 0, 0):
            engine.step(agent)
        assert list(ring.queues[2]) == [1, 0]
        assert ring.queue_head(2) == 1
        assert engine.enabled_agents() == [1]
        engine.step(1)
        assert list(ring.queues[2]) == [0]
        assert list(ring.queues[3]) == [1]
        assert engine.enabled_agents() == [0, 1]

    def test_stepping_a_non_head_is_refused(self):
        engine = Engine(
            Placement(ring_size=8, homes=(0, 1)),
            [Scripted(FORWARD, FORWARD, FORWARD), Scripted(FORWARD, FORWARD)],
        )
        for agent in (1, 0, 0):
            engine.step(agent)
        with pytest.raises(SimulationError, match="agent 0 is not enabled"):
            engine.step(0)  # agent 1 is at the head: overtaking forbidden
        assert list(engine.ring.queues[2]) == [1, 0]

    def test_settle_and_depart(self):
        engine = Engine(
            Placement(ring_size=4, homes=(1,)), [Scripted(STAY, STAY, FORWARD)]
        )
        ring = engine.ring
        places = []
        for _ in range(3):
            engine.step(0)
            places.append((ring.locate(0), [set(s) for s in ring.staying]))
        assert places == [
            (("node", 1), [set(), {0}, set(), set()]),
            (("node", 1), [set(), {0}, set(), set()]),
            (("queue", 2), [set(), set(), set(), set()]),
        ]
        assert list(ring.queues[2]) == [0]
        assert ring.locations == {0: -3}

    def test_delay_buffer_counts_down_then_delivers(self):
        spec = LinkSpec(delay=2, seed=0)
        assert spec.draw_delay(0) == 2  # the first move waits two link ticks
        engine = Engine(
            Placement(ring_size=4, homes=(0,)), [Scripted(FORWARD)], links=spec
        )
        ring = engine.ring
        engine.step(0)
        assert ring.locate(0) == ("buffer", 1)
        assert [list(entry) for entry in ring.faults.buffers[1]] == [[0, 2]]
        assert engine.enabled_agents() == [link_actor(1)]
        engine.step(link_actor(1))
        assert [list(entry) for entry in ring.faults.buffers[1]] == [[0, 1]]
        assert ring.locate(0) == ("buffer", 1)
        engine.step(link_actor(1))
        assert not ring.faults.buffers[1]
        assert list(ring.queues[1]) == [0]
        assert ring.locate(0) == ("queue", 1)
        assert engine.enabled_agents() == [0]
