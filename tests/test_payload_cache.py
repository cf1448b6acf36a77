"""The engine's per-agent payload-bytes cache is invisible in the encoding.

:meth:`repro.sim.engine.Engine.snapshot` hands each snapshot the packed
bytes of every agent payload, reusing the bytes of its previous
snapshot (or of the engine it was forked from) for agents whose
``(started, fingerprint, inbox)`` payload did not change.  This is the
differential gate for that cache: after every step of every algorithm
under every scheduler family — and on a faulty ring — stepping through
``fork()``, the snapshot's packed layout must equal the layout of the
same snapshot rebuilt with ``payload_bytes=None`` (every payload packed
from scratch).  Broadcast recipients change payload without acting, so
they get a dedicated check.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.experiments.runner import build_engine
from repro.registry import algorithm_names, build_scheduler
from repro.ring.configuration import encode_payload
from repro.ring.faults import LinkSpec
from repro.ring.placement import random_placement

SCHEDULERS = ("sync", "random", "burst", "chaos", "laggard")
ALL_ALGORITHMS = algorithm_names(include_selftest=True)


def _check_snapshot(snapshot) -> None:
    bare = dataclasses.replace(snapshot, payload_bytes=None)
    assert snapshot.packed_layout() == bare.packed_layout()
    assert snapshot == bare  # a cache, not state
    for agent_id, encoded in snapshot.payload_bytes.items():
        assert encoded == encode_payload(snapshot._agent_payload(agent_id))


def _drive(algorithm, scheduler, links=None, seed=0, max_steps=150):
    """Step a forking engine through scheduler batches; yield each step.

    Yields ``(actor, before, after)`` snapshot pairs.  Every third step
    continues on a fresh ``fork()``, so cached bytes cross the fork.
    """
    placement = random_placement(9, 3, random.Random(seed))
    engine = build_engine(
        algorithm,
        placement,
        build_scheduler(scheduler, seed=seed),
        record_views=True,
        collect_metrics=False,
        links=links,
    )
    before = engine.snapshot()
    _check_snapshot(before)
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
            _check_snapshot(after)
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
    # cached bytes must be replaced, not reused.
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
