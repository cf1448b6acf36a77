"""Oracle: an agent's fingerprint determines its control point.

The model checker memoises on canonical keys built from each agent's
``state_fingerprint()``, and the partial-order reducer trusts those keys
to name the whole global state.  Agents also carry a control field the
fingerprint leaves out (``stage``: where in its protocol the agent
resumes), so that memoisation is sound only if the declared variables
already pin the stage down.  This test checks exactly that: it explores
every interleaving of small cells without partial-order reduction and
asserts that each agent's ``(type, started, state_fingerprint())`` is
seen at one control point only.

The map is keyed per agent, never per canonical key: rotation-symmetric
placements give one key to states whose agent ids are permuted, so a
key-level map would report conflicts that are not there.  Exploration
itself dedupes on the canonical key of the snapshot with every agent's
control point folded into its state, so two states merge only when they
agree on control points as well.

The same exploration checks the rule that keeps the payload memo of
:func:`repro.ring.configuration.encode_payload` exact.  The memo keys on
``==``, under which ``True == 1`` and ``False == 0`` (with equal hashes),
while :func:`~repro.ring.configuration.pack_value` encodes them apart.
So no declared agent field and no message field may hold a ``bool`` in
one reachable state and an ``int`` in another; the test records the
value kinds of each ``(agent type, field)`` and ``(message class,
field)`` over every state it visits.

The memo of :class:`repro.mc.properties.MemoryBound` keys an agent's
audited bits on its fingerprint under the same rule (a bool costs one
bit, ``1`` two), so the exploration also checks that every fingerprint
audits to one ``memory_bits()`` value.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.runner import build_engine
from repro.mc import all_placements
from repro.registry import algorithm_names
from repro.ring.placement import Placement


def _control_point(agent):
    """Where ``agent`` resumes; a halted agent never acts again."""
    return None if agent.halted else agent.stage


def _kinds(value):
    """The kinds (``bool`` / ``int``) of the numbers in ``value``."""
    if isinstance(value, bool):
        return {bool}
    if isinstance(value, int):
        return {int}
    if isinstance(value, (tuple, list)):
        return set().union(*map(_kinds, value))
    return set()


def _record_kinds(snapshot, kinds):
    """Add the number kinds of every declared field and message field."""
    for agent_id, fingerprint in snapshot.agent_states.items():
        agent_type, _halted, _suspended, scalars, sequences = fingerprint
        for name, value in scalars + sequences:
            kinds.setdefault((agent_type, name), set()).update(_kinds(value))
        for message in snapshot.inboxes[agent_id]:
            for f in dataclasses.fields(message):
                kinds.setdefault((type(message).__name__, f.name), set()).update(
                    _kinds(getattr(message, f.name))
                )


def _observe(engine, controls, kinds, audits):
    """Record every agent's control point and audited bits; return the
    exploration key."""
    snapshot = engine.snapshot()
    _record_kinds(snapshot, kinds)
    augmented = {}
    for agent_id, fingerprint in snapshot.agent_states.items():
        agent = engine.agent(agent_id)
        control = _control_point(agent)
        entry = (type(agent).__name__, snapshot.started[agent_id], fingerprint)
        first = controls.setdefault(entry, control)
        assert first == control, (
            f"fingerprint {entry} seen at control points {first} and {control}"
        )
        augmented[agent_id] = (control, fingerprint)
        bits = audits.setdefault(fingerprint, agent.memory_bits())
        assert bits == agent.memory_bits(), (
            f"fingerprint {fingerprint} audits to {bits} and "
            f"{agent.memory_bits()} bits"
        )
    return dataclasses.replace(snapshot, agent_states=augmented).canonical_key()


def _explore(algorithm, placement):
    """Visit every reachable state (no POR); return (states, fingerprints).

    Fails when a field mixes ``bool`` and ``int`` values across the
    visited states.
    """
    controls = {}
    kinds = {}
    audits = {}
    root = build_engine(algorithm, placement, collect_metrics=False)
    visited = set()
    stack = [root]
    while stack:
        engine = stack.pop()
        key = _observe(engine, controls, kinds, audits)
        if key in visited:
            continue
        visited.add(key)
        for actor in engine.enabled_agents():
            child = engine.fork()
            child.step(actor)
            stack.append(child)
    mixed = sorted(field for field, seen in kinds.items() if seen >= {bool, int})
    assert not mixed, f"fields holding both bool and int values: {mixed}"
    assert any(kinds.values()), "no numeric field observed"
    return len(visited), len(controls)


def _check_cell(algorithm, n, k):
    for placement in all_placements(n, k):
        states, fingerprints = _explore(algorithm, placement)
        assert states > 1 and fingerprints > k


@pytest.mark.parametrize("algorithm", algorithm_names())
def test_fingerprint_determines_control_point_6x2(algorithm):
    _check_cell(algorithm, 6, 2)


@pytest.mark.mc
@pytest.mark.parametrize("n,k", [(6, 3), (8, 2)])
@pytest.mark.parametrize("algorithm", algorithm_names())
def test_fingerprint_determines_control_point(algorithm, n, k):
    _check_cell(algorithm, n, k)


@pytest.mark.mc
def test_fingerprint_determines_control_point_wake_race():
    states, _ = _explore("wake_race", Placement(8, homes=(0, 1, 3)))
    assert states > 1
