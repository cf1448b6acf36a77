"""Differential tests: incremental enabledness vs the full recompute.

The engine maintains the enabled-agent set live (O(1) updates per state
transition).  The seed engine's full O(k) rescan survives as
``Engine.recompute_enabled_agents`` — the oracle.  These tests prove:

* the incremental set equals the oracle after *every* batch, across all
  schedulers and all four algorithms (``validate_enabledness=True``
  asserts exactly that inside ``_run_batch``),
* running with validation on does not perturb the execution: the
  ``activation_log``, the full :class:`Metrics`, and the final
  positions are identical with and without the oracle in the loop,
* tracing does not perturb the execution either,
* a recorded execution replays to the identical log under validation.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import build_agents
from repro.registry import algorithm_names
from repro.ring.placement import random_placement
from repro.sim.engine import Engine
from repro.sim.scheduler import (
    BurstScheduler,
    ChaosScheduler,
    LaggardScheduler,
    RandomScheduler,
    ReplayScheduler,
    SynchronousScheduler,
)
from repro.sim.trace import TraceRecorder

#: name -> zero-state scheduler factory (fresh instance per engine so
#: two engines never share RNG state).
SCHEDULER_FACTORIES = {
    "SynchronousScheduler": lambda: SynchronousScheduler(),
    "RandomScheduler": lambda: RandomScheduler(seed=13),
    "LaggardScheduler": lambda: LaggardScheduler([0, 1], patience=7, seed=13),
    "BurstScheduler": lambda: BurstScheduler(burst=9, seed=13),
    "ChaosScheduler": lambda: ChaosScheduler(epoch=11, seed=13),
}

ALL_ALGORITHMS = algorithm_names()


def _engine(algorithm, n, k, placement_seed, scheduler, **kwargs) -> Engine:
    placement = random_placement(n, k, random.Random(placement_seed))
    agents = build_agents(algorithm, k, n)
    return Engine(placement, agents, scheduler=scheduler, **kwargs)


def _metrics_tuple(engine: Engine):
    m = engine.metrics
    return (
        dict(m.moves_per_agent),
        dict(m.activations_per_agent),
        dict(m.memory_bits_per_agent),
        m.messages_sent,
        m.messages_delivered,
        m.tokens_released,
        m.rounds,
    )


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULER_FACTORIES))
def test_incremental_equals_recompute_after_every_batch(
    algorithm, scheduler_name
):
    # validate_enabledness=True raises inside _run_batch the moment the
    # live set and the O(k) oracle disagree, so reaching quiescence IS
    # the per-batch differential proof.
    engine = _engine(
        algorithm,
        36,
        6,
        placement_seed=5,
        scheduler=SCHEDULER_FACTORIES[scheduler_name](),
        validate_enabledness=True,
    )
    engine.run()
    assert engine.quiescent
    engine.check_enabledness_invariant()  # terminal state agrees too
    assert engine.enabled_agents() == engine.recompute_enabled_agents() == []


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULER_FACTORIES))
def test_oracle_mode_does_not_perturb_the_execution(algorithm, scheduler_name):
    fast = _engine(
        algorithm, 36, 6, 5, SCHEDULER_FACTORIES[scheduler_name]()
    )
    validated = _engine(
        algorithm,
        36,
        6,
        5,
        SCHEDULER_FACTORIES[scheduler_name](),
        validate_enabledness=True,
    )
    fast.run()
    validated.run()
    assert fast.activation_log == validated.activation_log
    assert _metrics_tuple(fast) == _metrics_tuple(validated)
    assert fast.final_positions() == validated.final_positions()


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_tracing_does_not_perturb_the_execution(algorithm):
    untraced = _engine(algorithm, 30, 5, 9, RandomScheduler(seed=4))
    traced = _engine(
        algorithm, 30, 5, 9, RandomScheduler(seed=4), trace=TraceRecorder()
    )
    untraced.run()
    traced.run()
    assert untraced.activation_log == traced.activation_log
    assert _metrics_tuple(untraced) == _metrics_tuple(traced)
    assert untraced.final_positions() == traced.final_positions()


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_replay_reproduces_log_under_validation(algorithm):
    recorded = _engine(algorithm, 30, 5, 2, ChaosScheduler(epoch=8, seed=6))
    recorded.run()
    replayed = _engine(
        algorithm,
        30,
        5,
        2,
        ReplayScheduler(recorded.activation_log),
        validate_enabledness=True,
    )
    replayed.run()
    assert replayed.activation_log == recorded.activation_log
    assert replayed.final_positions() == recorded.final_positions()
    assert _metrics_tuple(replayed) == _metrics_tuple(recorded)


def test_collect_metrics_off_does_not_perturb_the_execution():
    with_metrics = _engine("known_k_full", 36, 6, 5, RandomScheduler(seed=1))
    without_metrics = _engine(
        "known_k_full", 36, 6, 5, RandomScheduler(seed=1), collect_metrics=False
    )
    with_metrics.run()
    without_metrics.run()
    assert with_metrics.activation_log == without_metrics.activation_log
    assert with_metrics.final_positions() == without_metrics.final_positions()
    # Disabled collection really is disabled (zero-cost hot path).
    assert without_metrics.metrics.total_activations == 0
    assert without_metrics.metrics.total_moves == 0
    assert without_metrics.metrics.rounds is None


@settings(max_examples=25, deadline=None)
@given(
    algorithm=st.sampled_from(ALL_ALGORITHMS),
    n=st.integers(min_value=4, max_value=40),
    k=st.integers(min_value=1, max_value=8),
    placement_seed=st.integers(min_value=0, max_value=2**16),
    scheduler_seed=st.integers(min_value=0, max_value=2**16),
    scheduler_name=st.sampled_from(sorted(SCHEDULER_FACTORIES)),
)
def test_property_incremental_matches_oracle(
    algorithm, n, k, placement_seed, scheduler_seed, scheduler_name
):
    k = min(k, n)
    factories = {
        "SynchronousScheduler": lambda: SynchronousScheduler(),
        "RandomScheduler": lambda: RandomScheduler(seed=scheduler_seed),
        "LaggardScheduler": lambda: LaggardScheduler(
            [0], patience=5, seed=scheduler_seed
        ),
        "BurstScheduler": lambda: BurstScheduler(burst=6, seed=scheduler_seed),
        "ChaosScheduler": lambda: ChaosScheduler(epoch=7, seed=scheduler_seed),
    }
    engine = _engine(
        algorithm,
        n,
        k,
        placement_seed,
        factories[scheduler_name](),
        validate_enabledness=True,
    )
    engine.run()
    assert engine.quiescent
    assert engine.recompute_enabled_agents() == []
