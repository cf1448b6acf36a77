"""Engine single-step driving and copy-on-branch forking."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.experiments.runner import build_engine
from repro.registry import algorithm_names
from repro.ring.placement import Placement
from repro.sim.actions import Action
from repro.sim.agent import Agent


def test_step_requires_enabled_agent():
    engine = build_engine("known_k_full", Placement(6, homes=(0, 3)))
    enabled = engine.enabled_agents()
    with pytest.raises(SimulationError):
        engine.step(99)  # unknown agent
    engine.step(enabled[0])
    assert engine.steps == 1


def test_step_sequence_matches_scheduler_run():
    placement = Placement(ring_size=8, homes=(0, 3, 5))
    driven = build_engine("known_k_full", placement)
    reference = build_engine("known_k_full", placement)
    # Driving lowest-id-first by hand equals a recorded scheduler run.
    while not driven.quiescent:
        driven.step(driven.enabled_agents()[0])
    reference.run()
    assert driven.final_positions() == reference.final_positions()


def test_fork_requires_record_views():
    engine = build_engine("known_k_full", Placement(6, homes=(0, 3)))
    with pytest.raises(SimulationError):
        engine.fork()


def test_agent_fork_requires_view_recording():
    agent = Agent()
    with pytest.raises(SimulationError):
        agent.fork()


def test_view_recording_cannot_start_mid_run():
    engine = build_engine("known_k_full", Placement(6, homes=(0, 3)))
    engine.step(engine.enabled_agents()[0])
    with pytest.raises(SimulationError):
        engine.agent(0).begin_view_recording()


@pytest.mark.parametrize("algorithm", algorithm_names())
def test_fork_is_independent_and_equivalent(algorithm):
    placement = Placement(ring_size=8, homes=(0, 3, 5))
    engine = build_engine(algorithm, placement, record_views=True)
    for _ in range(7):
        engine.step(engine.enabled_agents()[0])
    fork = engine.fork()
    assert fork.snapshot() == engine.snapshot()
    assert fork.steps == engine.steps
    assert fork.activation_log == engine.activation_log

    # Divergence: stepping the fork leaves the original untouched.
    before = engine.snapshot()
    fork.step(fork.enabled_agents()[-1])
    assert engine.snapshot() == before
    assert fork.steps == engine.steps + 1

    # Both run to quiescence along the same rule -> same final state.
    while not engine.quiescent:
        engine.step(engine.enabled_agents()[0])
    while not fork.quiescent:
        fork.step(fork.enabled_agents()[0])
    assert sorted(engine.final_positions().values()) == sorted(
        fork.final_positions().values()
    )


def test_fork_of_fork():
    engine = build_engine("unknown", Placement(6, homes=(0, 2)), record_views=True)
    for _ in range(5):
        engine.step(engine.enabled_agents()[0])
    grandchild = engine.fork().fork()
    assert grandchild.snapshot() == engine.snapshot()
    grandchild.step(grandchild.enabled_agents()[0])
    assert grandchild.steps == engine.steps + 1


def test_fork_preserves_halted_and_suspended_flags():
    engine = build_engine("unknown", Placement(5, homes=(0, 2)), record_views=True)
    engine.run()  # relaxed algorithm quiesces all-suspended
    fork = engine.fork()
    for agent_id in engine.agent_ids:
        assert fork.agent(agent_id).suspended == engine.agent(agent_id).suspended
        assert fork.agent(agent_id).halted == engine.agent(agent_id).halted
    assert fork.quiescent


def test_fork_carries_activation_log_for_replay():
    from repro.sim.scheduler import ReplayScheduler

    placement = Placement(ring_size=6, homes=(0, 3))
    engine = build_engine("known_k_full", placement, record_views=True)
    for _ in range(9):
        engine.step(engine.enabled_agents()[-1])
    fork = engine.fork()
    # The fork's log replays on a fresh engine to the identical state.
    replay = build_engine(
        "known_k_full", placement, scheduler=ReplayScheduler(fork.activation_log)
    )
    replay.run_rounds(len(fork.activation_log))
    assert replay.snapshot() == fork.snapshot()


class _CtorArgsAgent(Agent):
    def __init__(self, alpha, beta=2):
        super().__init__()
        self.alpha = alpha
        self.beta = beta
        self.declare("alpha", "beta")

    def protocol(self, first_view):
        yield Action.halt_here()


def test_agent_fork_reconstructs_constructor_arguments():
    agent = _CtorArgsAgent(7, beta=9)
    agent.begin_view_recording()
    clone = agent.fork()
    assert isinstance(clone, _CtorArgsAgent)
    assert (clone.alpha, clone.beta) == (7, 9)
    assert clone.state_fingerprint() == agent.state_fingerprint()
