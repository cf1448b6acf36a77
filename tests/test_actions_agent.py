"""Unit tests for Action validation and the Agent base class."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolViolation, SimulationError
from repro.sim.actions import Action, Move, NodeView
from repro.sim.agent import Agent


class TestAction:
    def test_defaults(self):
        action = Action()
        assert action.move is Move.STAY
        assert not action.release_token
        assert action.broadcast is None

    def test_constructors(self):
        assert Action.move_forward().move is Move.FORWARD
        assert Action.stay().move is Move.STAY
        assert Action.halt_here().halt
        assert Action.suspend_here().suspend

    def test_move_and_halt_rejected(self):
        with pytest.raises(ProtocolViolation):
            Action(move=Move.FORWARD, halt=True)

    def test_move_and_suspend_rejected(self):
        with pytest.raises(ProtocolViolation):
            Action(move=Move.FORWARD, suspend=True)

    def test_halt_and_suspend_rejected(self):
        with pytest.raises(ProtocolViolation):
            Action(halt=True, suspend=True)

    def test_broadcast_payload_carried(self):
        action = Action.move_forward(broadcast={"x": 1})
        assert action.broadcast == {"x": 1}


class _Walker(Agent):
    """Walk ``steps`` hops, then halt."""

    SCALARS = ("done", "steps")

    def __init__(self, steps: int) -> None:
        super().__init__()
        self.steps = steps
        self.done = None
        self.moved = 0

    def transition(self, view):
        if self.moved < self.steps:
            self.moved += 1
            return Action.move_forward()
        self.done = True
        return Action.halt_here()


class _BadFinisher(Agent):
    """Has no transition for its second stage — a protocol violation."""

    def transition(self, view):
        if self.stage == "start":
            self.stage = "unhandled"
            return Action.move_forward()


class TestAgentLifecycle:
    def test_start_then_act(self):
        agent = _Walker(2)
        view = NodeView(tokens=0, agents_present=0)
        action = agent.start(view)
        assert action.move is Move.FORWARD
        action = agent.act(view)
        assert action.move is Move.FORWARD
        action = agent.act(view)
        assert action.halt
        assert agent.halted

    def test_double_start_rejected(self):
        agent = _Walker(1)
        view = NodeView(tokens=0, agents_present=0)
        agent.start(view)
        with pytest.raises(SimulationError):
            agent.start(view)

    def test_act_before_start_rejected(self):
        agent = _Walker(1)
        with pytest.raises(SimulationError):
            agent.act(NodeView(tokens=0, agents_present=0))

    def test_act_after_halt_rejected(self):
        agent = _Walker(0)
        view = NodeView(tokens=0, agents_present=0)
        action = agent.start(view)
        assert action.halt
        with pytest.raises(SimulationError):
            agent.act(view)

    def test_transition_without_action_is_violation(self):
        agent = _BadFinisher()
        view = NodeView(tokens=0, agents_present=0)
        agent.start(view)
        with pytest.raises(ProtocolViolation):
            agent.act(view)

    def test_non_action_return_is_violation(self):
        class Bad(Agent):
            def transition(self, view):
                return "not an action"

        with pytest.raises(ProtocolViolation):
            Bad().start(NodeView(tokens=0, agents_present=0))

    def test_suspend_flag_cleared_on_next_act(self):
        class Suspender(Agent):
            def transition(self, view):
                if self.stage == "start":
                    self.stage = "suspended"
                    return Action.suspend_here()
                return Action.halt_here()

        agent = Suspender()
        view = NodeView(tokens=0, agents_present=0)
        agent.start(view)
        assert agent.suspended
        agent.act(view)
        assert not agent.suspended
        assert agent.halted


class TestMemoryAccounting:
    def test_scalar_bits(self):
        agent = _Walker(0)
        agent.steps = 0
        assert agent.memory_bits() >= 2  # steps + done

    def test_unset_costs_one_bit(self):
        agent = _Walker(3)
        base = agent.memory_bits()
        agent.done = True
        assert agent.memory_bits() == base  # bool costs 1 bit, same as None

    def test_bits_grow_with_value(self):
        agent = _Walker(1)
        small = agent.memory_bits()
        agent.steps = 10**6
        assert agent.memory_bits() > small

    def test_sequence_bits(self):
        class WithSeq(Agent):
            SEQUENCES = ("D",)

            def __init__(self):
                super().__init__()
                self.D = None

            def transition(self, view):
                return Action.halt_here()

        agent = WithSeq()
        empty = agent.memory_bits()
        agent.D = [3, 3, 3, 3]
        four = agent.memory_bits()
        agent.D = [3] * 8
        eight = agent.memory_bits()
        assert empty < four < eight
        assert eight == 2 * four  # width fixed, length doubled

    def test_non_integer_scalar_rejected(self):
        agent = _Walker(1)
        agent.steps = "oops"
        with pytest.raises(SimulationError):
            agent.memory_bits()

    def test_fingerprint_reflects_state(self):
        first = _Walker(2)
        second = _Walker(2)
        assert first.state_fingerprint() == second.state_fingerprint()
        second.steps = 5
        assert first.state_fingerprint() != second.state_fingerprint()
