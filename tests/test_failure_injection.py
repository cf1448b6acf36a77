"""Failure injection: the engine must turn bad behaviour into loud errors.

The model forbids certain behaviours (overtaking, acting after halting,
removing tokens — the latter is unrepresentable by construction).  These
tests inject misbehaving agents and schedules and assert the engine
fails fast with the right exception instead of corrupting the run.
"""

from __future__ import annotations

import pytest

from reference_impls import scratch_snapshot
from repro.errors import ProtocolViolation, SimulationError, SimulationLimitExceeded
from repro.mc.properties import (
    FifoLinkIntegrity,
    StructuralIntegrity,
    TokenMonotonicity,
)
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


class TestLiveStateCorruption:
    """Corrupt a live engine's ring, and the per-action checks report it.

    The engine writes ring state without checking each write; the
    safety properties that ``repro mc`` and ``repro fuzz`` run after
    every action are what catch a bad write.  The post-state comes from
    ``scratch_snapshot``: ``Engine.snapshot`` re-encodes only the nodes
    the last action touched, so it would miss corruption elsewhere.
    """

    def _stepped(self):
        """Agent 0 has joined agent 1's queue; agent 2 is about to act."""
        placement = Placement(ring_size=8, homes=(0, 1, 5))
        engine = Engine(placement, [SpinnerAgent() for _ in range(3)])
        engine.step(0)
        assert tuple(engine.ring.queues[1]) == (1, 0)
        pre = scratch_snapshot(engine)
        engine.step(2)  # touches nodes 5 and 6 only
        return engine, pre

    def test_reordered_queue_is_an_overtake(self):
        engine, pre = self._stepped()
        engine.ring.queues[1].reverse()
        post = scratch_snapshot(engine)
        assert FifoLinkIntegrity().check(pre, engine, post, 2) == (
            "queue into node 1 changed (1, 0) -> (0, 1) by agent 2: "
            "not a head-leave/tail-enter"
        )

    def test_agent_in_two_places(self):
        engine, pre = self._stepped()
        engine.ring.staying[3].add(0)
        post = scratch_snapshot(engine)
        assert StructuralIntegrity().check(pre, engine, post, 2) == (
            "agent 0 queued toward 1 and staying at 3"
        )

    def test_removed_token(self):
        engine = _engine([SpinnerAgent()])
        engine.ring.tokens[3] = 1
        pre = scratch_snapshot(engine)
        engine.step(0)  # touches nodes 0 and 1 only
        engine.ring.tokens[3] = 0
        post = scratch_snapshot(engine)
        assert TokenMonotonicity().check(pre, engine, post, 0) == (
            "token count decreased: "
            "(0, 0, 0, 1, 0, 0, 0, 0) -> (0, 0, 0, 0, 0, 0, 0, 0)"
        )


class TestViewIntegrity:
    def test_views_are_immutable(self):
        view = NodeView(tokens=1, agents_present=0)
        with pytest.raises(AttributeError):
            view.tokens = 5

    def test_actions_are_immutable(self):
        action = Action.move_forward()
        with pytest.raises(AttributeError):
            action.move = None
