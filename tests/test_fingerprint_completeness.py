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


def _observe(engine, controls):
    """Record every agent's control point; return the exploration key."""
    snapshot = engine.snapshot()
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
    return dataclasses.replace(
        snapshot, agent_states=augmented, payload_bytes=None
    ).canonical_key()


def _explore(algorithm, placement):
    """Visit every reachable state (no POR); return (states, fingerprints)."""
    controls = {}
    root = build_engine(algorithm, placement, collect_metrics=False)
    visited = set()
    stack = [root]
    while stack:
        engine = stack.pop()
        key = _observe(engine, controls)
        if key in visited:
            continue
        visited.add(key)
        for actor in engine.enabled_agents():
            child = engine.fork()
            child.step(actor)
            stack.append(child)
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
