"""Mid-run snapshot consistency: the 5-tuple partitions the agents.

At every point of every execution, each agent is in exactly one place:
one node's staying set or one link queue.  Token counts never decrease
between snapshots, and the snapshot helpers agree with the live ring.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import build_engine
from repro.ring.placement import random_placement
from repro.sim.scheduler import RandomScheduler


def _all_agent_occurrences(snapshot):
    placed = []
    for node, agents in snapshot.staying.items():
        placed.extend(agents)
    for node, agents in snapshot.queues.items():
        placed.extend(agents)
    return placed


@pytest.mark.parametrize("algorithm", ["known_k_full", "known_k_logspace", "unknown"])
def test_partition_holds_at_every_round(algorithm):
    placement = random_placement(18, 4, random.Random(5))
    engine = build_engine(algorithm, placement)
    previous_tokens = engine.snapshot().tokens
    for _ in engine.iter_rounds():
        snapshot = engine.snapshot()
        occurrences = _all_agent_occurrences(snapshot)
        assert sorted(occurrences) == list(engine.agent_ids)
        assert all(
            now >= before for now, before in zip(snapshot.tokens, previous_tokens)
        )
        previous_tokens = snapshot.tokens


@given(seed=st.integers(0, 5_000))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_partition_under_random_schedules(seed):
    rng = random.Random(seed)
    placement = random_placement(rng.randint(6, 20), rng.randint(2, 5), rng)
    algorithm = rng.choice(["known_k_full", "known_k_logspace", "unknown"])
    engine = build_engine(algorithm, placement, scheduler=RandomScheduler(seed))
    checked = 0
    while not engine.quiescent and checked < 200:
        engine.run_rounds(3)
        snapshot = engine.snapshot()
        assert sorted(_all_agent_occurrences(snapshot)) == list(engine.agent_ids)
        checked += 1
    engine.run()
    final = engine.snapshot()
    assert final.all_queues_empty()
    assert sorted(_all_agent_occurrences(final)) == list(engine.agent_ids)


def test_snapshot_tokens_match_ring():
    placement = random_placement(14, 3, random.Random(9))
    engine = build_engine("known_k_full", placement)
    engine.run_rounds(5)
    assert engine.snapshot().tokens == tuple(engine.ring.tokens)
