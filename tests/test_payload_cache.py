"""The caches behind engine snapshots are invisible in the encoding.

:meth:`repro.sim.engine.Engine.snapshot` builds each snapshot from the
previous one: after one agent action it re-fingerprints the actor,
re-packs the payloads of the agents it touched (looked up in the
process-wide memo of :func:`repro.ring.configuration.encode_payload`)
and re-encodes the node blocks of the packed form only for the nodes it
touched, sharing everything else.  This is the differential gate for
all of it: every snapshot field, every payload's bytes, the per-node
blocks and the packed layout with its slots must equal those of
:func:`reference_impls.scratch_snapshot`, a snapshot built from the
live engine that carries nothing over, packed from fresh
:func:`pack_value` bytes.  Neither side of the packed comparison goes
through a cache.

The walks cover every algorithm (self-test agents too) under every
scheduler family, with random forks whose parent takes a sibling
action, multi-action tails, snapshots packed only after the next one
was taken, and a faulty ring.  The ``mc``-marked tests run the same
check on every snapshot of the routine exhaustive grid and of a fuzz
campaign.  Broadcast recipients change payload without acting, so they
get a dedicated check, and the memo's bound, its clearing and its
fallback for unhashable payloads are tested directly.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from reference_impls import scratch_snapshot
from repro.experiments.runner import build_engine
from repro.fuzz import FuzzSpec, fuzz
from repro.mc import exhaust_placements
from repro.registry import algorithm_names, build_scheduler
from repro.ring import configuration
from repro.ring.configuration import Configuration, encode_payload, pack_value
from repro.ring.faults import LinkSpec
from repro.ring.placement import random_placement
from repro.sim.engine import Engine
from repro.spec import PlacementSpec

SCHEDULERS = ("sync", "random", "burst", "chaos", "laggard")
ALL_ALGORITHMS = algorithm_names(include_selftest=True)
STATE_FIELDS = tuple(f.name for f in dataclasses.fields(Configuration) if f.init)


def _fresh_bytes(payload) -> bytes:
    """``payload`` packed into a new buffer, bypassing the memo."""
    out = bytearray()
    pack_value(payload, out)
    return bytes(out)


def _reference(engine) -> Configuration:
    """The from-scratch snapshot, packed from fresh payload bytes."""
    reference = scratch_snapshot(engine)
    fresh = {
        agent_id: _fresh_bytes(reference._agent_payload(agent_id))
        for agent_id in reference.agent_states
    }
    reference._carry(fresh)
    return reference


def _check_fields(snapshot, reference) -> None:
    for name in STATE_FIELDS:
        assert getattr(snapshot, name) == getattr(reference, name), name
    assert snapshot.payload_bytes == reference.payload_bytes


def _check_packed(snapshot, reference) -> None:
    assert snapshot.packed_layout() == reference.packed_layout()
    assert snapshot._blocks == reference._blocks
    assert snapshot._node_slots == reference._node_slots
    assert snapshot == reference


def _check_snapshot(snapshot, engine) -> None:
    reference = _reference(engine)
    _check_fields(snapshot, reference)
    _check_packed(snapshot, reference)


def _carried(before, after) -> bool:
    """Whether ``after`` took over node blocks of ``before``."""
    return before._blocks is not None and any(
        new is old for new, old in zip(after._blocks, before._blocks)
    )


def _walk(algorithm, scheduler, links=None, seed=0, max_steps=150, stats=None):
    """Step an engine through scheduler batches; check its snapshots.

    A seeded coin picks how each action is taken:

    * on a fresh ``fork()``, whose parent then takes a sibling action
      from the snapshot the two share (and has that checked too),
    * as part of a multi-action tail (no snapshot after it),
    * with the snapshot packed only after the next snapshot was taken,
    * or plainly.

    Yields ``(actor, before, after)`` for the snapshots exactly one
    action apart; ``stats`` counts the snapshots that carried blocks.
    """
    rng = random.Random(seed)
    placement = random_placement(9, 3, random.Random(seed))
    engine = build_engine(
        algorithm,
        placement,
        build_scheduler(scheduler, seed=seed),
        collect_metrics=False,
        links=links,
    )
    before = engine.snapshot()
    assert engine.snapshot() is before  # no action, nothing to rebuild
    _check_snapshot(before, engine)
    deferred = None
    tail = False
    steps = 0
    while not engine.quiescent and steps < max_steps:
        for actor in engine.scheduler.next_batch(engine.enabled_agents()):
            if actor not in engine.enabled_agents():
                continue
            coin = rng.random()
            if coin < 0.25:
                parent, engine = engine, engine.fork()
                siblings = [a for a in parent.enabled_agents() if a != actor]
                if siblings:
                    parent.step(rng.choice(siblings))
                    _check_snapshot(parent.snapshot(), parent)
            engine.step(actor)
            steps += 1
            if 0.25 <= coin < 0.4:
                tail = True  # the next snapshot covers two or more actions
                continue
            after = engine.snapshot()
            reference = _reference(engine)
            _check_fields(after, reference)
            if deferred is not None:
                _check_packed(*deferred)
                deferred = None
            if 0.4 <= coin < 0.55:
                deferred = (after, reference)
            else:
                _check_packed(after, reference)
                if stats is not None and _carried(before, after):
                    stats["carried"] += 1
            if not tail:
                yield actor, before, after
            before = after
            tail = False
    if deferred is not None:
        _check_packed(*deferred)


def _recipients(actor, before, after):
    """Agents other than the actor whose inbox changed in one step."""
    return [
        agent_id
        for agent_id in after.inboxes
        if agent_id != actor and after.inboxes[agent_id] != before.inboxes[agent_id]
    ]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_delta_snapshot_equals_scratch_snapshot(algorithm, scheduler):
    stats = {"carried": 0}
    steps = sum(1 for _ in _walk(algorithm, scheduler, stats=stats))
    assert steps > 0
    assert stats["carried"] > 0  # the incremental path really ran


def test_delta_snapshot_equals_scratch_snapshot_on_faulty_ring():
    links = LinkSpec(delay=1, dup=1, seed=2)
    for algorithm in ALL_ALGORITHMS:
        for _actor, _before, after in _walk(algorithm, "random", links=links, seed=1):
            assert after.faults is not None


def test_broadcast_recipient_bytes_refresh_without_acting():
    # A broadcast lands in the inbox of agents that did not act; their
    # bytes must change with the inbox.
    refreshed = 0
    for algorithm in ("known_k_logspace", "unknown"):
        for scheduler in SCHEDULERS:
            for actor, before, after in _walk(algorithm, scheduler, max_steps=400):
                for recipient in _recipients(actor, before, after):
                    assert (
                        after.payload_bytes[recipient]
                        != before.payload_bytes[recipient]
                    )
                    refreshed += 1
    assert refreshed > 0


@pytest.mark.parametrize("name", ["tokens", "agent_states", "inboxes", "started"])
def test_replaced_configuration_encodes_from_its_fields(name):
    engine = build_engine("unknown", random_placement(9, 3, random.Random(4)))
    engine.run_rounds(3)
    engine.snapshot().packed_layout()
    engine.step(engine.enabled_agents()[0])
    snapshot = engine.snapshot()
    snapshot.packed_layout()
    assert snapshot._blocks is not None and snapshot.payload_bytes is not None
    agent_id = engine.agent_ids[0]
    changed = {
        "tokens": tuple(count + 1 for count in snapshot.tokens),
        "agent_states": {**snapshot.agent_states, agent_id: ("edited",)},
        "inboxes": {**snapshot.inboxes, agent_id: ("edited",)},
        "started": {**snapshot.started, agent_id: not snapshot.started[agent_id]},
    }[name]
    replaced = dataclasses.replace(snapshot, **{name: changed})
    assert replaced.payload_bytes is None and replaced._blocks is None
    by_hand = Configuration(
        **{field: getattr(replaced, field) for field in STATE_FIELDS}
    )
    assert replaced.packed_layout() == by_hand.packed_layout()
    assert replaced != snapshot


# ----------------------------------------------------------------------
# The same differential on every snapshot of the exhaustive grid and of
# a fuzz campaign
# ----------------------------------------------------------------------


@pytest.fixture
def checked_snapshots(monkeypatch):
    """Check every ``Engine.snapshot()`` against the scratch reference."""
    original = Engine.snapshot
    stats = {"snapshots": 0, "carried": 0}

    def checked(engine):
        snapshot = original(engine)
        stats["snapshots"] += 1
        stats["carried"] += snapshot._blocks is not None
        _check_snapshot(snapshot, engine)
        return snapshot

    monkeypatch.setattr(Engine, "snapshot", checked)
    return stats


@pytest.mark.mc
@pytest.mark.parametrize("n,k", [(6, 2), (6, 3), (8, 2)])
def test_delta_snapshots_of_the_exhaustive_grid(checked_snapshots, n, k):
    for algorithm in algorithm_names():
        assert all(result.ok for result in exhaust_placements(algorithm, n, k))
    assert checked_snapshots["carried"] > checked_snapshots["snapshots"] // 2


@pytest.mark.mc
def test_delta_snapshots_of_a_fuzz_campaign(checked_snapshots):
    spec = FuzzSpec(
        algorithm="unknown",
        placement=PlacementSpec(kind="random", ring_size=32, agent_count=4, seed=1),
        budget=10,
        seed=1,
        placements=1,
    )
    outcome = fuzz(spec)
    assert not outcome.failures
    assert (outcome.runs, outcome.steps, outcome.states) == (10, 16600, 14098)
    assert checked_snapshots["carried"] > checked_snapshots["snapshots"] // 2


# ----------------------------------------------------------------------
# The payload memo
# ----------------------------------------------------------------------


@pytest.fixture
def small_memo(monkeypatch):
    """An empty memo with a cap of 8, restored afterwards."""
    monkeypatch.setattr(configuration, "_PAYLOAD_MEMO", {})
    monkeypatch.setattr(configuration, "_PAYLOAD_MEMO_CAP", 8)
    return configuration


def _payloads(count):
    return [(True, ("Agent", False, False, (("x", i),), ()), ()) for i in range(count)]


def test_memo_never_exceeds_its_cap(small_memo):
    for payload in _payloads(50):
        encode_payload(payload)
        assert 0 < len(small_memo._PAYLOAD_MEMO) <= small_memo._PAYLOAD_MEMO_CAP


def test_memo_bytes_survive_a_clear(small_memo):
    payloads = _payloads(small_memo._PAYLOAD_MEMO_CAP)
    before = [encode_payload(payload) for payload in payloads]
    assert len(small_memo._PAYLOAD_MEMO) == small_memo._PAYLOAD_MEMO_CAP
    encode_payload((False, None, ()))  # full: this insert clears first
    assert len(small_memo._PAYLOAD_MEMO) == 1
    after = [encode_payload(payload) for payload in payloads]
    assert after == before == [_fresh_bytes(payload) for payload in payloads]


def test_unhashable_payload_bypasses_the_memo(small_memo):
    payload = (True, ("Agent", False, False, (("D", [1, 2, 3]),), ()), ())
    with pytest.raises(TypeError):
        hash(payload)
    assert encode_payload(payload) == _fresh_bytes(payload)
    assert small_memo._PAYLOAD_MEMO == {}
