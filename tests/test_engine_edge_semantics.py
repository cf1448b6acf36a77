"""Edge semantics of the engine's drivers and observation fast paths.

Three contracts pinned here:

* **Driver boundaries** (``run_rounds`` / ``run_until``): what happens
  with zero rounds, with a predicate already true at entry, and on an
  engine that is already quiescent.  In particular the regression that
  motivated the contract: ``run_until`` on a quiescent engine used to
  re-evaluate the predicate a *second* time at the same boundary, so a
  side-effectful predicate could make a quiesced run report ``True``.
* **Observation fast paths** (``collect_metrics=False``, no trace):
  turning recording off must never change what the simulation *does* —
  same activation log, same step count, same final positions — across
  every algorithm and scheduler family.  ``pending_messages()``, the
  snapshot-free message count run verification uses, must equal the
  snapshot's count.
* **Activation guards**: an activation is one atomic action (arrival
  and move/settle resolve together inside ``Engine.step``), and a
  halted agent never acts again.  ``Engine.step`` refuses an agent
  that is not enabled, and ``Agent.act`` refuses a halted agent.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.experiments.runner import build_agents
from repro.registry import algorithm_names
from repro.ring.placement import random_placement
from repro.sim.actions import NodeView
from repro.sim.engine import Engine
from repro.sim.scheduler import (
    BurstScheduler,
    ChaosScheduler,
    LaggardScheduler,
    RandomScheduler,
    RecordingScheduler,
    SynchronousScheduler,
)
from repro.sim.trace import TraceRecorder

ALL_ALGORITHMS = algorithm_names()

SCHEDULER_FACTORIES = {
    "SynchronousScheduler": lambda: SynchronousScheduler(),
    "RandomScheduler": lambda: RandomScheduler(seed=13),
    "LaggardScheduler": lambda: LaggardScheduler([0], patience=5, seed=13),
    "BurstScheduler": lambda: BurstScheduler(burst=7, seed=13),
    "ChaosScheduler": lambda: ChaosScheduler(epoch=9, seed=13),
}


def _engine(algorithm, n, k, placement_seed, scheduler, **kwargs) -> Engine:
    placement = random_placement(n, k, random.Random(placement_seed))
    agents = build_agents(algorithm, k, n)
    return Engine(placement, agents, scheduler=scheduler, **kwargs)


# -- run_rounds boundaries ---------------------------------------------------


def test_run_rounds_zero_runs_nothing():
    recorder = RecordingScheduler(SynchronousScheduler())
    engine = _engine("known_k_full", 20, 4, 1, recorder)
    metrics = engine.run_rounds(0)
    assert engine.steps == 0
    assert recorder.batches == []  # scheduler never consulted
    assert metrics.total_activations == 0


def test_run_rounds_negative_runs_nothing():
    engine = _engine("known_k_full", 20, 4, 1, SynchronousScheduler())
    engine.run_rounds(-3)
    assert engine.steps == 0


def test_run_rounds_on_quiescent_engine_is_a_noop():
    recorder = RecordingScheduler(SynchronousScheduler())
    engine = _engine("known_k_full", 20, 4, 1, recorder)
    engine.run()
    assert engine.quiescent
    steps = engine.steps
    batches = len(recorder.batches)
    engine.run_rounds(10)
    assert engine.steps == steps
    assert len(recorder.batches) == batches  # no draw on an empty enabled set


def test_run_rounds_stops_early_at_quiescence():
    engine = _engine("known_k_full", 16, 4, 2, SynchronousScheduler())
    engine.run_rounds(10_000_000)
    assert engine.quiescent


# -- run_until boundaries ----------------------------------------------------


def test_run_until_predicate_true_at_entry_runs_nothing():
    recorder = RecordingScheduler(SynchronousScheduler())
    engine = _engine("known_k_full", 20, 4, 1, recorder)
    assert engine.run_until(lambda eng: True) is True
    assert engine.steps == 0
    assert recorder.batches == []


def test_run_until_max_rounds_zero_is_a_pure_probe():
    calls = []
    engine = _engine("known_k_full", 20, 4, 1, SynchronousScheduler())
    assert (
        engine.run_until(lambda eng: calls.append(1) or False, max_rounds=0)
        is False
    )
    assert engine.steps == 0
    assert len(calls) == 1  # exactly one boundary evaluation
    assert engine.run_until(lambda eng: True, max_rounds=0) is True


def test_run_until_evaluates_predicate_once_per_boundary():
    recorder = RecordingScheduler(SynchronousScheduler())
    engine = _engine("known_k_full", 20, 4, 3, recorder)
    calls = []
    assert engine.run_until(lambda eng: calls.append(1) or False) is False
    assert engine.quiescent
    # One evaluation before each batch plus the final quiescent boundary.
    assert len(calls) == len(recorder.batches) + 1


def test_run_until_quiescent_never_double_evaluates_the_predicate():
    # Regression: the quiescent branch used to call the predicate a
    # second time at the same boundary, so a predicate with side
    # effects (here: true from its 2nd call on) made a quiesced run
    # return True.  The contract is one evaluation per boundary and
    # False on quiescence.
    engine = _engine("known_k_full", 20, 4, 1, SynchronousScheduler())
    engine.run()
    assert engine.quiescent
    calls = []

    def flips_true_on_second_call(eng) -> bool:
        calls.append(1)
        return len(calls) >= 2

    assert engine.run_until(flips_true_on_second_call) is False
    assert len(calls) == 1


def test_run_until_fires_mid_run():
    engine = _engine("known_k_full", 24, 4, 5, SynchronousScheduler())
    assert engine.run_until(lambda eng: eng.steps >= 10) is True
    assert 10 <= engine.steps < 10 + 4  # fired at the first boundary past 10


# -- observation fast paths (collect_metrics / trace) ------------------------


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULER_FACTORIES))
@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_metrics_off_fast_path_preserves_execution(algorithm, scheduler_name):
    full = _engine(
        algorithm, 24, 6, 7, SCHEDULER_FACTORIES[scheduler_name]()
    )
    fast = _engine(
        algorithm,
        24,
        6,
        7,
        SCHEDULER_FACTORIES[scheduler_name](),
        collect_metrics=False,
    )
    full.run()
    fast.run()
    assert list(fast.activation_log) == list(full.activation_log)
    assert fast.steps == full.steps
    assert fast.final_positions() == full.final_positions()
    # The fast path really is fast: nothing was recorded.
    assert fast.metrics.total_activations == 0
    assert fast.metrics.total_moves == 0
    assert fast.metrics.rounds is None
    assert fast.metrics.memory_bits_per_agent == {}


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_metrics_and_trace_off_together_preserve_execution(algorithm):
    full = _engine(
        algorithm, 24, 6, 11, ChaosScheduler(epoch=6, seed=3),
        trace=TraceRecorder(),
    )
    bare = _engine(
        algorithm, 24, 6, 11, ChaosScheduler(epoch=6, seed=3),
        collect_metrics=False,
    )
    full.run()
    bare.run()
    assert list(bare.activation_log) == list(full.activation_log)
    assert bare.final_positions() == full.final_positions()


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_pending_messages_agrees_with_snapshot(algorithm):
    # Run verification counts undelivered messages without building a
    # snapshot; the count must be the snapshot's at every boundary.
    engine = _engine(algorithm, 24, 6, 7, RandomScheduler(seed=13))
    seen_pending = engine.pending_messages() > 0
    while not engine.quiescent:
        engine.run_rounds(1)
        pending = engine.pending_messages()
        assert pending == engine.snapshot().total_messages_pending()
        seen_pending = seen_pending or pending > 0
    if algorithm == "known_k_logspace":
        assert seen_pending  # leader notices sit in follower inboxes


# -- activation guards -------------------------------------------------------


def test_step_refuses_a_halted_agent():
    engine = _engine("known_k_full", 20, 4, 1, SynchronousScheduler())
    engine.run()
    assert engine.agent(0).halted
    log = engine.activation_log
    with pytest.raises(SimulationError, match="agent 0 is not enabled"):
        engine.step(0)
    assert engine.activation_log == log  # nothing ran


def test_halted_agent_refuses_to_act():
    engine = _engine("known_k_full", 20, 4, 1, SynchronousScheduler())
    engine.run()
    agent = engine.agent(0)
    assert agent.halted
    with pytest.raises(SimulationError, match="halted agent activated"):
        agent.act(NodeView(tokens=1, agents_present=0))
