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
