"""Pinned fuzz trajectories: the state encoding must not steer campaigns.

A campaign's novelty decisions depend only on which canonical states it
has seen, i.e. on the *partition* the state key induces, never on the
key's bytes.  Pinning ``(runs, steps, states)`` of fixed campaigns — and
the content hash of a found failure — makes any change to that
partition, or to how keys are computed, fail loudly.  The probe-size
campaigns run in tier-1; the benchmark-size campaigns (the ``verify``
workload of ``perfbench``) carry the ``fuzz`` marker.
"""

from __future__ import annotations

import pytest

from repro.fuzz import FuzzSpec, fuzz
from repro.spec import PlacementSpec


def _unknown_campaign(ring_size: int, agent_count: int, budget: int, seed: int):
    spec = FuzzSpec(
        algorithm="unknown",
        placement=PlacementSpec(
            kind="random", ring_size=ring_size, agent_count=agent_count, seed=seed
        ),
        budget=budget,
        seed=seed,
        placements=1,
    )
    outcome = fuzz(spec)
    assert not outcome.failures
    return outcome.runs, outcome.steps, outcome.states


@pytest.mark.parametrize(
    "seed,expected",
    [(1, (8, 4960, 3772)), (2, (8, 4936, 3302)), (3, (8, 4920, 3941))],
)
def test_probe_campaign_trajectory_pinned(seed, expected):
    assert _unknown_campaign(16, 3, 8, seed) == expected


@pytest.mark.fuzz
@pytest.mark.parametrize(
    "seed,expected",
    [(1, (10, 16600, 14098)), (2, (10, 16470, 13635)), (3, (10, 16340, 12485))],
)
def test_benchmark_campaign_trajectory_pinned(seed, expected):
    assert _unknown_campaign(32, 4, 10, seed) == expected


@pytest.mark.fuzz
def test_wake_race_campaign_failure_pinned():
    spec = FuzzSpec(
        algorithm="wake_race",
        placement=PlacementSpec(kind="random", ring_size=16, agent_count=4, seed=0),
        budget=120,
        placements=2,
        seed=0,
    )
    outcome = fuzz(spec)
    assert (outcome.runs, outcome.steps) == (3, 426)
    assert len(outcome.failures) == 1
    failure = outcome.failures[0]
    assert failure.replay_verified
    assert failure.content_hash == (
        "df953facb4c6e81f69ce8ff6639b8bed7a09749edd1882c4d8d3730026cf5d45"
    )
