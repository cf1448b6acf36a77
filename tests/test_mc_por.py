"""The sleep-set partial-order reduction is sound and actually reduces.

Soundness here is *total*: sleep sets prune transitions, never states,
so the reduced search must agree with full expansion on every
observable — verdict, explored-state count, terminal-state key set and
violation reachability.  The differential gate below enforces exactly
that, cell by cell, on the full PR-2 verification grid (mc-marked) and
on fast small instances (tier-1).  A reduction that merely "usually
agrees" would silently weaken the repo's exhaustiveness claims, which
is why the comparison is on canonical state keys, not just counts.
"""

from __future__ import annotations

import pytest

from repro.mc import (
    check_frontier,
    check_interleavings,
    conflict,
    exhaust_placements,
    replay_counterexample,
    sleep_after,
)
from repro.mc.por import action_node, agents_of_slots, slots_of_agents
from repro.mc.selftest import wake_race_agents
from repro.experiments.runner import build_engine
from repro.registry import algorithm_names
from repro.ring.placement import Placement
from repro.sim.actions import Action
from repro.sim.agent import Agent

BUG_PLACEMENT = Placement(ring_size=8, homes=(0, 1, 3))
BUG_K = 3


# ----------------------------------------------------------------------
# Unit level: the independence relation and sleep-set propagation
# ----------------------------------------------------------------------


def test_conflict_is_same_action_node_only():
    assert conflict(6, 2, 2)
    assert conflict(6, 0, 6)  # modular
    assert not conflict(6, 2, 3)  # adjacent nodes commute (tail vs head)
    assert not conflict(6, 0, 5)


def test_action_node_tracks_agent_location():
    engine = build_engine("unknown", Placement(6, homes=(0, 3)), record_views=True)
    for agent_id in engine.enabled_agents():
        _, node = engine.ring.locate(agent_id)
        assert action_node(engine, agent_id) == node
        assert 0 <= node < 6


def test_sleep_after_wakes_conflicting_agents_only():
    engine = build_engine("unknown", Placement(6, homes=(0, 3)), record_views=True)
    enabled = engine.enabled_agents()
    assert len(enabled) >= 2
    acting = enabled[0]
    other = enabled[1]
    slept = {acting, other}
    kept = sleep_after(engine, slept, acting, 6)
    assert acting not in kept  # the actor never sleeps across itself
    same_node = action_node(engine, acting) == action_node(engine, other)
    assert (other in kept) == (not same_node)
    assert sleep_after(engine, set(), acting, 6) == set()


def test_sleep_slot_round_trip():
    engine = build_engine("unknown", Placement(8, homes=(0, 3, 5)), record_views=True)
    for _ in range(9):
        engine.step(engine.enabled_agents()[0])
    snapshot = engine.snapshot()
    agents = set(engine.enabled_agents())
    slots = slots_of_agents(snapshot, agents)
    assert agents_of_slots(snapshot, slots) == agents
    assert slots_of_agents(snapshot, ()) == frozenset()


# ----------------------------------------------------------------------
# Differential gate: POR vs full expansion, small cells (tier-1)
# ----------------------------------------------------------------------


def _assert_por_equivalent(reduced, full):
    assert reduced.ok == full.ok
    assert reduced.complete == full.complete
    assert reduced.verdict == full.verdict
    assert reduced.explored == full.explored
    assert reduced.terminals == full.terminals
    assert reduced.terminal_keys == full.terminal_keys
    assert len(reduced.violations) == len(full.violations)
    # The whole point: strictly fewer transitions executed.
    assert reduced.transitions < full.transitions
    assert reduced.por_skipped > 0
    assert full.por_skipped == 0


@pytest.mark.parametrize("algorithm", algorithm_names())
@pytest.mark.parametrize("placement", [
    Placement(5, homes=(0, 2)),
    Placement(6, homes=(0, 1)),
    Placement(6, homes=(0, 3)),
], ids=lambda p: f"n{p.ring_size}-{'-'.join(map(str, p.homes))}")
def test_por_differential_small(algorithm, placement):
    reduced = check_interleavings(algorithm, placement, stop_at_first=False)
    full = check_interleavings(algorithm, placement, por=False, stop_at_first=False)
    _assert_por_equivalent(reduced, full)


def test_por_escape_hatch_restores_full_expansion():
    placement = Placement(5, homes=(0, 2))
    full = check_interleavings("known_k_full", placement, por=False)
    again = check_interleavings("known_k_full", placement, por=False)
    assert full == again
    assert full.por_skipped == 0
    assert full.deduped > 0


# ----------------------------------------------------------------------
# Violations stay reachable under reduction
# ----------------------------------------------------------------------


def test_wake_race_still_caught_with_por_and_replays():
    kwargs = dict(
        factory=lambda: wake_race_agents(BUG_K),
        require_halted=True,
        require_suspended=False,
        stop_at_first=False,
    )
    reduced = check_interleavings("wake_race(known_k_logspace)", BUG_PLACEMENT, **kwargs)
    full = check_interleavings(
        "wake_race(known_k_logspace)", BUG_PLACEMENT, por=False, **kwargs
    )
    assert reduced.violations and full.violations
    assert reduced.explored == full.explored
    assert reduced.terminal_keys == full.terminal_keys
    assert reduced.transitions < full.transitions
    violation = reduced.violations[0]
    _, messages = replay_counterexample(
        violation,
        factory=lambda: wake_race_agents(BUG_K),
        require_halted=True,
        require_suspended=False,
    )
    assert violation.message in messages


def test_wake_race_still_caught_with_por_frontier():
    result = check_frontier(
        "wake_race",
        BUG_PLACEMENT,
        jobs=1,
        require_halted=False,
        require_suspended=True,
    )
    assert result.violations
    assert result.violations[0].kind == "terminal"


class _ForeverSpinner(Agent):
    """Circles the ring forever: a guaranteed livelock cycle."""

    def protocol(self, first_view):
        while True:
            yield Action.move_forward()


def test_cycle_detection_survives_por():
    placement = Placement(ring_size=4, homes=(0,))
    result = check_interleavings(
        "forever_spinner",
        placement,
        factory=lambda: [_ForeverSpinner()],
        require_halted=True,
        require_suspended=False,
    )
    assert result.violations
    assert result.violations[0].kind == "cycle"


def test_truncation_reported_identically_under_por():
    placement = Placement(6, homes=(0, 3))
    reduced = check_interleavings("known_k_full", placement, depth_limit=5)
    full = check_interleavings("known_k_full", placement, por=False, depth_limit=5)
    assert not reduced.complete and not full.complete
    assert reduced.verdict == full.verdict == "truncated"


# ----------------------------------------------------------------------
# Full-grid differential gate (mc-marked; the dedicated CI job)
# ----------------------------------------------------------------------


@pytest.mark.mc
@pytest.mark.parametrize("algorithm", algorithm_names())
@pytest.mark.parametrize("n,k", [(6, 2), (6, 3), (8, 2)])
def test_por_differential_full_grid(algorithm, n, k):
    # Raw placements (no rotation dedup): the gate covers every initial
    # configuration PR 2 covered, not just necklace representatives.
    reduced = exhaust_placements(
        algorithm, n, k, dedupe_rotations=False, stop_at_first=False
    )
    full = exhaust_placements(
        algorithm, n, k, dedupe_rotations=False, por=False, stop_at_first=False
    )
    assert len(reduced) == len(full)
    for r, f in zip(reduced, full):
        _assert_por_equivalent(r, f)


@pytest.mark.mc
def test_por_reduction_is_substantial_on_grid():
    # The reduction must be worth its complexity: >=1.5x fewer executed
    # transitions across the (6, 3) cell (k=3 is where commuting
    # interleavings explode; bench_mc.py measures ~2x and above).
    reduced = exhaust_placements("unknown", 6, 3, stop_at_first=False)
    full = exhaust_placements("unknown", 6, 3, por=False, stop_at_first=False)
    reduced_t = sum(r.transitions for r in reduced)
    full_t = sum(f.transitions for f in full)
    assert full_t / reduced_t >= 1.5
