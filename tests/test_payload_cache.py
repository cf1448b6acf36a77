"""The caches behind engine snapshots are invisible in the encoding.

:meth:`repro.sim.engine.Engine.snapshot` hands each snapshot the packed
bytes of every agent payload, looked up in the process-wide memo of
:func:`repro.ring.configuration.encode_payload`, and re-fingerprints
only the agents that acted since the engine's previous snapshot.  This
is the differential gate for both: after every step of every algorithm
under every scheduler family — and on a faulty ring — stepping through
``fork()``, every agent's fingerprint must equal a fresh
``state_fingerprint()``, its bytes a fresh :func:`pack_value` of its
``(started, fingerprint, inbox)`` payload, and the snapshot's packed
layout the layout built from such fresh bytes.  Neither side goes
through a cache.  Broadcast recipients change
payload without acting, so they get a dedicated check, and the memo's
bound, its clearing and its fallback for unhashable payloads are
tested directly.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.experiments.runner import build_engine
from repro.registry import algorithm_names, build_scheduler
from repro.ring import configuration
from repro.ring.configuration import encode_payload, pack_value
from repro.ring.faults import LinkSpec
from repro.ring.placement import random_placement

SCHEDULERS = ("sync", "random", "burst", "chaos", "laggard")
ALL_ALGORITHMS = algorithm_names(include_selftest=True)


def _fresh_bytes(payload) -> bytes:
    """``payload`` packed into a new buffer, bypassing the memo."""
    out = bytearray()
    pack_value(payload, out)
    return bytes(out)


def _check_snapshot(snapshot, engine) -> None:
    assert snapshot.agent_states == {
        agent_id: engine.agent(agent_id).state_fingerprint()
        for agent_id in engine.agent_ids
    }
    fresh = {
        agent_id: _fresh_bytes(snapshot._agent_payload(agent_id))
        for agent_id in snapshot.agent_states
    }
    assert snapshot.payload_bytes == fresh
    bare = dataclasses.replace(snapshot, payload_bytes=fresh)
    assert snapshot.packed_layout() == bare.packed_layout()
    assert snapshot == bare  # a cache, not state


def _drive(algorithm, scheduler, links=None, seed=0, max_steps=150):
    """Step a forking engine through scheduler batches; yield each step.

    Yields ``(actor, before, after)`` snapshot pairs.  Every third step
    continues on a fresh ``fork()``.
    """
    placement = random_placement(9, 3, random.Random(seed))
    engine = build_engine(
        algorithm,
        placement,
        build_scheduler(scheduler, seed=seed),
        collect_metrics=False,
        links=links,
    )
    before = engine.snapshot()
    _check_snapshot(before, engine)
    steps = 0
    while not engine.quiescent and steps < max_steps:
        for actor in engine.scheduler.next_batch(engine.enabled_agents()):
            if actor not in engine.enabled_agents():
                continue
            engine.step(actor)
            steps += 1
            if steps % 3 == 0:
                engine = engine.fork()
            after = engine.snapshot()
            _check_snapshot(after, engine)
            yield actor, before, after
            before = after


def _recipients(actor, before, after):
    """Agents other than the actor whose inbox changed in one step."""
    return [
        agent_id
        for agent_id in after.inboxes
        if agent_id != actor and after.inboxes[agent_id] != before.inboxes[agent_id]
    ]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_cached_layout_equals_fresh_layout(algorithm, scheduler):
    steps = sum(1 for _ in _drive(algorithm, scheduler))
    assert steps > 0


def test_cached_layout_equals_fresh_layout_on_faulty_ring():
    links = LinkSpec(delay=1, dup=1, seed=2)
    for algorithm in ALL_ALGORITHMS:
        for _actor, _before, after in _drive(algorithm, "random", links=links, seed=1):
            assert after.faults is not None


def test_broadcast_recipient_bytes_refresh_without_acting():
    # A broadcast lands in the inbox of agents that did not act; their
    # bytes must change with the inbox.
    refreshed = 0
    for algorithm in ("known_k_logspace", "unknown"):
        for scheduler in SCHEDULERS:
            for actor, before, after in _drive(algorithm, scheduler, max_steps=400):
                for recipient in _recipients(actor, before, after):
                    assert (
                        after.payload_bytes[recipient]
                        != before.payload_bytes[recipient]
                    )
                    refreshed += 1
    assert refreshed > 0


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
