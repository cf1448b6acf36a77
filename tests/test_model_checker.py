"""Tests for the interleaving model checker (``repro.mc``).

Two layers:

* fast tier-1 tests — small instances, the injected-bug self-test and
  the checker's own plumbing (determinism, truncation, cycle and
  safety-property detection, counterexample replay);
* ``@pytest.mark.mc`` tests — the exhaustive acceptance grid: all four
  algorithms on every placement of (6,2), (6,3) and (8,2), run in the
  dedicated CI job.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.mc import (
    MCResult,
    MemoryBound,
    all_placements,
    check_frontier,
    check_interleavings,
    exhaust_placements,
    replay_counterexample,
)
from repro.mc.selftest import wake_race_agents
from repro.analysis.verification import verify_uniform_deployment
from repro.registry import algorithm_names
from repro.ring.placement import Placement
from repro.sim.actions import Action
from repro.sim.agent import Agent
from repro.sim.engine import Engine
from repro.sim.scheduler import (
    BurstScheduler,
    ChaosScheduler,
    LaggardScheduler,
    RandomScheduler,
    ReplayScheduler,
)

#: The pinned instance on which the injected wake-race bug survives the
#: synchronous scheduler AND every sampled adversary below, yet the
#: exhaustive checker finds a violating interleaving (see
#: repro/mc/selftest.py).
BUG_PLACEMENT = Placement(ring_size=8, homes=(0, 1, 3))
BUG_K = 3


# ----------------------------------------------------------------------
# Fast exhaustive checks (tier-1)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", algorithm_names())
def test_small_instance_exhausts_clean(algorithm):
    placement = Placement(ring_size=5, homes=(0, 2))
    result = check_interleavings(algorithm, placement)
    assert result.ok
    assert result.complete
    assert not result.violations
    assert result.explored > 1
    assert result.terminals >= 1
    assert result.transitions >= result.explored - 1  # spanning the graph
    # The sleep-set reduction prunes the commuting interleavings that
    # full expansion would only discover as memo hits.
    assert result.por_skipped > 0
    full = check_interleavings(algorithm, placement, por=False)
    assert full.deduped > 0  # interleaving commutation collapses states
    assert full.explored == result.explored
    assert full.terminal_keys == result.terminal_keys
    assert full.transitions > result.transitions


def test_result_counts_are_deterministic():
    placement = Placement(ring_size=6, homes=(0, 2))
    first = check_interleavings("known_k_full", placement)
    second = check_interleavings("known_k_full", placement)
    assert first == second


def test_rotated_placements_explore_identical_state_counts():
    # The canonical memoisation makes the search rotation-independent.
    first = check_interleavings("known_k_full", Placement(6, homes=(0, 2)))
    second = check_interleavings("known_k_full", Placement(6, homes=(1, 3)))
    assert first.explored == second.explored
    assert first.transitions == second.transitions
    assert first.terminals == second.terminals


def test_depth_limit_truncates_search():
    placement = Placement(ring_size=6, homes=(0, 3))
    result = check_interleavings("known_k_full", placement, depth_limit=5)
    assert not result.complete
    assert not result.ok
    assert result.max_depth <= 5
    assert not result.violations  # truncation is not a violation


def test_max_states_truncates_search():
    placement = Placement(ring_size=6, homes=(0, 3))
    result = check_interleavings("known_k_full", placement, max_states=10)
    assert not result.complete
    assert result.explored <= 11


def test_unknown_algorithm_name_rejected():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        check_interleavings("no_such_algorithm", Placement(5, homes=(0, 2)))


# ----------------------------------------------------------------------
# The checker finds deliberately injected bugs (self-test)
# ----------------------------------------------------------------------


def _sampled_run_is_uniform(scheduler=None):
    engine = Engine(
        placement=BUG_PLACEMENT,
        agents=wake_race_agents(BUG_K),
        scheduler=scheduler,
    )
    engine.run()
    return verify_uniform_deployment(engine, require_halted=True).ok


@pytest.mark.parametrize(
    "scheduler",
    [
        None,  # SynchronousScheduler
        RandomScheduler(seed=0),
        RandomScheduler(seed=1),
        RandomScheduler(seed=2),
        RandomScheduler(seed=3),
        BurstScheduler(seed=1),
        ChaosScheduler(seed=1),
        LaggardScheduler([0], seed=1),
        LaggardScheduler([2], seed=3),
    ],
    ids=lambda s: "sync" if s is None else s.describe(),
)
def test_wake_race_bug_survives_every_sampled_scheduler(scheduler):
    # The defect is invisible to one-sample-per-configuration testing:
    # every scheduler the repo ships deploys uniformly on this instance.
    assert _sampled_run_is_uniform(scheduler) is True


def test_wake_race_bug_is_found_exhaustively_and_replays():
    result = check_interleavings(
        "wake_race(known_k_logspace)",
        BUG_PLACEMENT,
        factory=lambda: wake_race_agents(BUG_K),
        require_halted=True,
        require_suspended=False,
    )
    assert result.violations, "the exhaustive search must find the race"
    violation = result.violations[0]
    assert violation.kind == "terminal"
    assert violation.schedule
    assert "schedule" in violation.replay_line() or "ReplayScheduler" in violation.replay_line()

    # Replaying the counterexample schedule reproduces the identical
    # violation message, deterministically, on a fresh engine.
    engine, messages = replay_counterexample(
        violation,
        factory=lambda: wake_race_agents(BUG_K),
        require_halted=True,
        require_suspended=False,
    )
    assert violation.message in messages
    assert engine.quiescent
    first_positions = dict(engine.final_positions())

    engine2, messages2 = replay_counterexample(
        violation,
        factory=lambda: wake_race_agents(BUG_K),
        require_halted=True,
        require_suspended=False,
    )
    assert messages2 == messages
    assert dict(engine2.final_positions()) == first_positions


def test_wake_race_counterexample_replays_through_replay_scheduler():
    result = check_interleavings(
        "wake_race(known_k_logspace)",
        BUG_PLACEMENT,
        factory=lambda: wake_race_agents(BUG_K),
        require_halted=True,
        require_suspended=False,
    )
    violation = result.violations[0]
    engine = Engine(
        placement=BUG_PLACEMENT,
        agents=wake_race_agents(BUG_K),
        scheduler=ReplayScheduler(violation.schedule),
    )
    engine.run()
    report = verify_uniform_deployment(engine, require_halted=True)
    assert not report.ok
    assert report.describe() in violation.message or violation.message in report.describe()


def test_checker_proves_bug_unreachable_on_other_placements():
    # No false positives: on this placement the injected defect is
    # unreachable under EVERY schedule, and the checker proves it.
    placement = Placement(ring_size=6, homes=(0, 1, 4))
    result = check_interleavings(
        "wake_race(known_k_logspace)",
        placement,
        factory=lambda: wake_race_agents(3),
        require_halted=True,
        require_suspended=False,
    )
    assert result.ok
    assert not result.violations


# ----------------------------------------------------------------------
# Safety-property and cycle detection plumbing
# ----------------------------------------------------------------------


class _ForeverSpinner(Agent):
    """Circles the ring forever: a guaranteed livelock cycle."""

    def transition(self, view):
        return Action.move_forward()


def test_cycle_detection_flags_livelock_and_replays():
    placement = Placement(ring_size=4, homes=(0,))
    result = check_interleavings(
        "forever_spinner",
        placement,
        factory=lambda: [_ForeverSpinner()],
        require_halted=True,
        require_suspended=False,
    )
    assert result.violations
    violation = result.violations[0]
    assert violation.kind == "cycle"
    # Replaying the livelock schedule revisits a state on its own path.
    _, messages = replay_counterexample(
        violation, factory=lambda: [_ForeverSpinner()]
    )
    assert violation.message in messages
    assert result.liveness == "checked"


def test_frontier_misses_the_livelock_and_says_so():
    # The breadth-first driver has no DFS path to find a back-edge on:
    # the same instance comes back "ok", and the result must say that
    # liveness was not checked.
    kwargs = dict(
        factory=lambda: [_ForeverSpinner()],
        require_halted=True,
        require_suspended=False,
    )
    placement = Placement(ring_size=4, homes=(0,))
    result = check_frontier("forever_spinner", placement, **kwargs)
    assert result.ok
    assert result.liveness == "not checked"
    assert "liveness not checked" in result.describe()
    assert result.to_dict()["liveness"] == "not checked"
    dfs = check_interleavings("forever_spinner", placement, **kwargs)
    assert dfs.verdict == "violation" and dfs.violations[0].kind == "cycle"


@pytest.mark.parametrize(
    "algorithm,placement,kwargs",
    [
        ("known_k_full", Placement(6, homes=(0, 3)), {}),
        ("wake_race", BUG_PLACEMENT, {"stop_at_first": False}),
        (
            "forever_spinner",
            Placement(4, homes=(0,)),
            {
                "factory": lambda: [_ForeverSpinner()],
                "require_halted": True,
                "require_suspended": False,
            },
        ),
    ],
    ids=["ok", "violation", "cycle"],
)
def test_result_round_trips_through_dict(algorithm, placement, kwargs):
    for result in (
        check_interleavings(algorithm, placement, **kwargs),
        check_frontier(algorithm, placement, **kwargs),
    ):
        assert MCResult.from_dict(result.to_dict()) == result
        assert MCResult.from_dict(json.loads(json.dumps(result.to_dict()))) == result


def test_memory_bound_property_fires_and_replays():
    placement = Placement(ring_size=6, homes=(0, 3))
    tight = (MemoryBound(1),)  # every real agent exceeds one bit
    result = check_interleavings(
        "known_k_full", placement, safety=tight
    )
    assert result.violations
    violation = result.violations[0]
    assert violation.kind == "safety"
    assert violation.property_name == "memory-bound"
    _, messages = replay_counterexample(violation, safety=tight)
    assert violation.message in messages


# ----------------------------------------------------------------------
# Exhaustive acceptance grid (second CI job)
# ----------------------------------------------------------------------


#: Rotation-distinct placement counts (necklace classes) per grid cell;
#: the raw one-home-at-0 enumeration has C(n-1, k-1) entries.
NECKLACE_COUNTS = {(6, 2): 3, (6, 3): 4, (8, 2): 4}


@pytest.mark.mc
@pytest.mark.parametrize("algorithm", algorithm_names())
@pytest.mark.parametrize("n,k", [(6, 2), (6, 3), (8, 2)])
def test_exhaustive_grid_all_placements_zero_violations(algorithm, n, k):
    results = exhaust_placements(algorithm, n, k)
    assert len(results) == NECKLACE_COUNTS[(n, k)]
    failures = [r.describe() for r in results if not r.ok]
    assert not failures, f"{len(failures)} placements failed: {failures[:3]}"
    assert all(r.complete for r in results)
    assert all(r.terminals >= 1 for r in results)
    assert sum(r.explored for r in results) > 0


def test_placement_dedup_counts_necklace_classes():
    # (8, 2): distance multisets {1,7},{2,6},{3,5},{4,4} -> 4 classes,
    # versus the raw C(7, 1) = 7 one-home-fixed placements.
    deduped = list(all_placements(8, 2))
    assert len(deduped) == 4
    raw = list(all_placements(8, 2, dedupe_rotations=False))
    assert len(raw) == math.comb(7, 1)
    # Dedup keeps one representative per rotation class of the distance
    # sequence and never invents a placement.
    raw_classes = {
        min(p.distances[i:] + p.distances[:i] for i in range(len(p.distances)))
        for p in raw
    }
    kept_classes = {
        min(p.distances[i:] + p.distances[:i] for i in range(len(p.distances)))
        for p in deduped
    }
    assert kept_classes == raw_classes


@pytest.mark.mc
def test_exhaustive_grid_is_nontrivial():
    # Exhaustiveness means many states, not one trace: sanity-check the
    # state counts the README reports.
    results = exhaust_placements("unknown", 6, 2)
    assert sum(r.explored for r in results) > 1000
    assert sum(r.por_skipped for r in results) > 500
    full = exhaust_placements("unknown", 6, 2, por=False)
    assert sum(r.deduped for r in full) > 300
    assert sum(r.explored for r in full) == sum(r.explored for r in results)
