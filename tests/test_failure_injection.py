"""Failure injection: the engine must turn bad behaviour into loud errors.

The model forbids certain behaviours (overtaking, acting after halting,
removing tokens — the latter is unrepresentable by construction).  These
tests inject misbehaving agents and schedules and assert the engine
fails fast with the right exception instead of corrupting the run.
"""

from __future__ import annotations

import pytest

from repro.errors import ProtocolViolation, SimulationError, SimulationLimitExceeded
from repro.ring.placement import Placement
from repro.sim.actions import Action, NodeView
from repro.sim.agent import Agent
from repro.sim.engine import Engine
from repro.sim.scheduler import Scheduler


class CrashingAgent(Agent):
    """Raises inside its transition after a few steps (a buggy algorithm)."""

    def __init__(self, crash_after: int) -> None:
        super().__init__()
        self.left = crash_after

    def transition(self, view):
        if self.left == 0:
            raise RuntimeError("injected agent crash")
        self.left -= 1
        return Action.move_forward()


class NonActionAgent(Agent):
    def transition(self, view):
        if self.stage == "start":
            self.stage = "bad"
            return Action.move_forward()
        return 42  # not an Action


class FallthroughAgent(Agent):
    """A transition with no branch for its stage returns ``None``."""

    def transition(self, view):
        if self.stage == "start":
            self.stage = "missing"
            return Action.move_forward()


class SpinnerAgent(Agent):
    def transition(self, view):
        return Action.move_forward()


class EmptyBatchScheduler(Scheduler):
    def next_batch(self, enabled):
        return []


class StaleAgentScheduler(Scheduler):
    """Returns an agent id that is never enabled (a broken scheduler)."""

    def next_batch(self, enabled):
        return [max(enabled) + 1000]


def _engine(agents, n=8, scheduler=None, max_steps=None):
    homes = tuple(range(0, 2 * len(agents), 2))
    placement = Placement(ring_size=n, homes=homes)
    return Engine(placement, agents, scheduler=scheduler, max_steps=max_steps)


class TestAgentFailures:
    def test_agent_crash_propagates(self):
        engine = _engine([CrashingAgent(3)])
        with pytest.raises(RuntimeError, match="injected agent crash"):
            engine.run()

    def test_non_action_return_is_protocol_violation(self):
        engine = _engine([NonActionAgent()])
        with pytest.raises(ProtocolViolation):
            engine.run()

    def test_transition_fallthrough_is_protocol_violation(self):
        engine = _engine([FallthroughAgent()])
        with pytest.raises(ProtocolViolation):
            engine.run()

    def test_livelock_hits_step_cap(self):
        engine = _engine([SpinnerAgent()], max_steps=50)
        with pytest.raises(SimulationLimitExceeded) as excinfo:
            engine.run()
        assert "50" in str(excinfo.value)

    def test_partial_failure_leaves_other_agent_state_inspectable(self):
        crasher = CrashingAgent(2)
        spinner = SpinnerAgent()
        engine = _engine([crasher, spinner], max_steps=1000)
        with pytest.raises(RuntimeError):
            engine.run()
        # The run aborted, but the engine's bookkeeping stays queryable.
        assert engine.steps > 0
        assert engine.metrics.total_moves > 0


class TestSchedulerFailures:
    def test_empty_batch_is_simulation_error(self):
        engine = _engine([SpinnerAgent()], scheduler=EmptyBatchScheduler(), max_steps=100)
        with pytest.raises(SimulationError):
            engine.run()

    def test_stale_agent_id_is_keyerror_free(self):
        # A scheduler naming an unknown agent: the engine re-checks
        # enabledness and must fail loudly, not corrupt state.
        engine = _engine([SpinnerAgent()], scheduler=StaleAgentScheduler(), max_steps=100)
        with pytest.raises((SimulationError, KeyError)):
            engine.run()


class TestRingLevelInjection:
    def test_out_of_order_dequeue_rejected(self):
        # Simulate an overtake attempt at the substrate level.
        engine = _engine([SpinnerAgent(), SpinnerAgent()])
        ring = engine.ring
        ring.enqueue(99, 5)
        ring.enqueue(98, 5)
        with pytest.raises(SimulationError):
            ring.dequeue(98, 5)  # 99 is at the head: overtaking forbidden

    def test_double_settle_rejected(self):
        engine = _engine([SpinnerAgent()])
        ring = engine.ring
        ring.settle(77, 3)
        with pytest.raises(SimulationError):
            ring.settle(77, 4)


class TestViewIntegrity:
    def test_views_are_immutable(self):
        view = NodeView(tokens=1, agents_present=0)
        with pytest.raises(AttributeError):
            view.tokens = 5

    def test_actions_are_immutable(self):
        action = Action.move_forward()
        with pytest.raises(AttributeError):
            action.move = None
