"""Brute-force reference implementations shared by property tests.

Kept outside ``conftest.py`` because pytest inserts both ``tests/`` and
``benchmarks/`` on ``sys.path`` and each has a ``conftest`` module — a
plain ``from conftest import ...`` resolves to whichever directory was
collected first.  A uniquely-named module has no such collision.
"""

from __future__ import annotations


def brute_force_min_rotation_index(sequence) -> int:
    """Reference implementation for Booth's algorithm tests."""
    items = tuple(sequence)
    if not items:
        return 0
    best = 0
    for candidate in range(1, len(items)):
        rotated = items[candidate:] + items[:candidate]
        current = items[best:] + items[:best]
        if rotated < current:
            best = candidate
    return best


def brute_force_min_period(sequence) -> int:
    """Reference implementation for minimal rotation period."""
    items = tuple(sequence)
    for period in range(1, len(items) + 1):
        if len(items) % period == 0 and items[period:] + items[:period] == items:
            return period
    return len(items)


def reference_canonical(config) -> tuple:
    """The ``repr``-tuple canonical form of a ``Configuration``.

    An independent oracle for the packed encoding
    (``Configuration.packed_layout``): it re-describes the state
    namelessly with plain Python values instead of bytes and picks the
    least rotation by brute force, so the two share no code.  Per node in
    ring order it lists ``(tokens, staying payloads sorted by repr,
    queued payloads head first)`` — plus the delay buffer under link
    faults — where a payload is ``(started, state fingerprint, inbox)``;
    rotations are compared through their ``repr``, a deterministic,
    injective encoding on the value types agents use.  Phantom entries
    become the anonymous marker ``"phantom"``, and a faulty ring appends
    its rotation-invariant draw counters.
    """

    def payload(agent_id):
        started = True if config.started is None else config.started.get(agent_id, True)
        if config.inboxes is not None:
            inbox = tuple(config.inboxes.get(agent_id, ()))
        else:
            inbox = config.inbox_sizes.get(agent_id, 0)
        return (started, config.agent_states[agent_id], inbox)

    def describe(agent_id):
        return payloads[agent_id] if agent_id >= 0 else "phantom"

    payloads = {agent_id: payload(agent_id) for agent_id in config.agent_states}
    nodes = []
    for node in range(config.ring_size):
        staying = tuple(
            sorted((payloads[a] for a in config.staying.get(node, ())), key=repr)
        )
        queued = tuple(describe(a) for a in config.queues.get(node, ()))
        entry = (config.tokens[node], staying, queued)
        if config.faults is not None:
            held = tuple(
                (describe(a), remaining) for a, remaining in config.faults[0][node]
            )
            entry = entry + (held,)
        nodes.append(entry)
    reprs = [repr(entry) for entry in nodes]
    size = config.ring_size
    best = min(range(size), key=lambda r: tuple(reprs[r:] + reprs[:r]))
    canonical = (size,) + tuple(nodes[best:] + nodes[:best])
    if config.faults is not None:
        _buffers, _lost, ordinal, loss_used, dup_used = config.faults
        canonical = canonical + (("link-faults", ordinal, loss_used, dup_used),)
    return canonical


def scratch_snapshot(engine):
    """The engine's current state as a ``Configuration`` built from scratch.

    Reads the live ring, agents, inboxes and started flags directly and
    carries nothing over from an earlier snapshot: no payload bytes, no
    node blocks.  The reference that ``Engine.snapshot()``, which
    re-encodes only what the last action touched, is checked against.
    """
    from repro.ring.configuration import Configuration

    ring = engine.ring
    agent_ids = engine.agent_ids
    inboxes = {agent_id: tuple(engine._inboxes[agent_id]) for agent_id in agent_ids}
    return Configuration(
        ring_size=ring.size,
        agent_states={
            agent_id: engine.agent(agent_id).state_fingerprint()
            for agent_id in agent_ids
        },
        tokens=tuple(ring.tokens),
        inbox_sizes={agent_id: len(inbox) for agent_id, inbox in inboxes.items()},
        staying={
            node: tuple(sorted(agents)) for node, agents in enumerate(ring.staying)
        },
        queues={node: tuple(queue) for node, queue in enumerate(ring.queues)},
        inboxes=inboxes,
        started={agent_id: engine._started[agent_id] for agent_id in agent_ids},
        faults=None if ring.faults is None else ring.faults.snapshot(),
    )


def reference_row(result) -> dict:
    """The flat result row as ``RunResult`` once shaped it: from the live
    result, with ``l`` read off a rebuilt :class:`Placement`.  The
    payload shaper (:func:`repro.store.records.result_row`) must match it."""
    from repro.ring.placement import Placement

    placement = Placement(
        ring_size=result.placement.ring_size, homes=result.placement.homes
    )
    return {
        "algorithm": result.algorithm,
        "n": placement.ring_size,
        "k": placement.agent_count,
        "l": placement.symmetry_degree,
        "scheduler": result.scheduler,
        "total_moves": result.total_moves,
        "max_moves": result.max_moves,
        "ideal_time": result.ideal_time,
        "max_memory_bits": result.max_memory_bits,
        "messages": result.messages_sent,
        "uniform": result.report.ok,
    }
