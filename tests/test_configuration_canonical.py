"""Configuration hashability/equality: canonical under ring rotation.

The model checker memoises visited states on ``hash(snapshot)`` /
``snapshot == snapshot``; these tests pin the contract directly:
snapshots of the same global state are equal and hash-equal, snapshots
of rotated copies of the state are equal (the ring is anonymous), and
distinct states never compare equal.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import build_engine
from repro.registry import algorithm_names
from repro.ring.configuration import Configuration, LocalConfiguration
from repro.ring.placement import Placement


def _rotate(placement: Placement, shift: int) -> Placement:
    n = placement.ring_size
    return Placement(
        ring_size=n, homes=tuple((home + shift) % n for home in placement.homes)
    )


@pytest.mark.parametrize("algorithm", algorithm_names())
def test_two_engines_same_state_equal_and_hash_equal(algorithm):
    placement = Placement(ring_size=8, homes=(0, 3, 5))
    first = build_engine(algorithm, placement)
    second = build_engine(algorithm, placement)
    assert first.snapshot() == second.snapshot()
    assert hash(first.snapshot()) == hash(second.snapshot())
    first.run()
    second.run()
    assert first.snapshot() == second.snapshot()
    assert hash(first.snapshot()) == hash(second.snapshot())


@pytest.mark.parametrize("shift", [1, 2, 5])
def test_rotated_placements_produce_equal_snapshots(shift):
    # The ring is anonymous: the same execution on a rotated ring is the
    # same global state, and the canonical form quotients the rotation.
    placement = Placement(ring_size=8, homes=(0, 2, 5))
    rotated = _rotate(placement, shift)
    first = build_engine("known_k_full", placement)
    second = build_engine("known_k_full", rotated)
    assert first.snapshot() == second.snapshot()
    assert hash(first.snapshot()) == hash(second.snapshot())
    first.run()
    second.run()
    assert first.snapshot() == second.snapshot()
    assert hash(first.snapshot()) == hash(second.snapshot())


def test_snapshot_orbit_deduplicates_in_a_set():
    placement = Placement(ring_size=6, homes=(0, 2))
    snapshots = {
        build_engine("known_k_full", _rotate(placement, shift)).snapshot()
        for shift in range(6)
    }
    assert len(snapshots) == 1


def test_distinct_states_never_compare_equal():
    # Walk one execution; every per-step snapshot is a distinct state
    # (the checker proved this execution graph acyclic at this size).
    engine = build_engine("known_k_full", Placement(6, homes=(0, 2)), record_views=True)
    seen = [engine.snapshot()]
    while not engine.quiescent:
        engine.step(engine.enabled_agents()[0])
        snapshot = engine.snapshot()
        for earlier in seen:
            assert snapshot != earlier
        seen.append(snapshot)
    assert len(seen) == engine.steps + 1


def test_diverged_fork_snapshot_differs():
    engine = build_engine("known_k_full", Placement(6, homes=(0, 3)), record_views=True)
    for _ in range(4):
        engine.step(engine.enabled_agents()[0])
    fork = engine.fork()
    assert fork.snapshot() == engine.snapshot()
    fork.step(fork.enabled_agents()[-1])
    assert fork.snapshot() != engine.snapshot()


def test_canonical_is_cached_and_stable():
    snapshot = build_engine("known_k_full", Placement(6, homes=(0, 2))).snapshot()
    first = snapshot.canonical_key()
    assert snapshot.canonical_key() is first  # cached on the frozen instance
    assert isinstance(first, bytes) and len(first) == 16
    # The historical name is an alias of the one state key.
    assert Configuration.canonical is Configuration.canonical_key
    assert snapshot.canonical() is first
    assert hash(snapshot) == hash(first)


def test_unstarted_agent_distinguished_from_started():
    # Two configurations identical except for the started flags must not
    # alias: a never-started agent behaves differently on activation.
    engine = build_engine("known_k_full", Placement(6, homes=(0, 2)))
    base = engine.snapshot()
    flipped = Configuration(
        ring_size=base.ring_size,
        agent_states=base.agent_states,
        tokens=base.tokens,
        inbox_sizes=base.inbox_sizes,
        staying=base.staying,
        queues=base.queues,
        inboxes=base.inboxes,
        started={agent_id: True for agent_id in base.agent_states},
    )
    assert base != flipped
    assert base.started == {0: False, 1: False}


def test_configuration_equality_rejects_other_types():
    snapshot = build_engine("known_k_full", Placement(5, homes=(0,))).snapshot()
    assert snapshot != "not a configuration"
    assert (snapshot == 42) is False


def test_local_configuration_keeps_fieldwise_equality():
    # Lemma 1 units are compared fieldwise, not canonically.
    first = LocalConfiguration(tokens=1, staying_states=("x",), queued_states=())
    second = LocalConfiguration(tokens=1, staying_states=("x",), queued_states=())
    third = LocalConfiguration(tokens=2, staying_states=("x",), queued_states=())
    assert first == second
    assert first != third
