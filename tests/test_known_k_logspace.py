"""Tests for Algorithms 2+3 (knowledge of k, O(log n) memory) — E2, E10, E11."""

from __future__ import annotations

import math

import pytest

from repro.core.known_k_logspace import KnownKLogSpaceAgent
from repro.errors import ConfigurationError
from repro.experiments.runner import build_engine, run_experiment
from repro.registry import get_algorithm
from repro.ring.placement import (
    Placement,
    equidistant_placement,
    periodic_placement,
    placement_from_distances,
    quarter_packed_placement,
    random_placement,
)
from repro.sim.scheduler import BurstScheduler, LaggardScheduler, RandomScheduler

ALGO = "known_k_logspace"
BOUNDS = get_algorithm(ALGO).bounds


def _figure5_placement() -> Placement:
    """Figure 5: n = 18, k = 9, three base nodes with 2 homes between.

    Homes of a1, a2, a3 are 6 apart (the bases); between consecutive
    bases sit two more homes.  Distances: (2, 2, 2) repeated 3 times
    gives degree 9; the figure's layout is (1, 2, 3)^3 style — we use an
    aperiodic in-segment pattern repeated three times.
    """
    return periodic_placement((1, 2, 3), 3)


class TestSelectionPhase:
    def test_figure5_base_count(self):
        # The selected base nodes must satisfy the base-node conditions;
        # for the Figure 5-style layout, 3 leaders emerge.
        placement = _figure5_placement()
        engine = build_engine(ALGO, placement)
        engine.run()
        leaders = [
            agent_id
            for agent_id in engine.agent_ids
            if engine.agent(agent_id).is_leader
        ]
        assert len(leaders) == 3

    def test_figure6_id_measurement(self):
        # Figure 6: the segment from the agent's home to the next active
        # node spans 5 nodes with 2 followers in between -> ID (5, 2).
        # Build it directly: in sub-phase 2, agents at homes 0 and 5
        # remain active, homes 2 and 4 are followers.
        # Layout distances from home 0: (2, 2, 1, 5) over n = 10.
        placement = placement_from_distances((2, 2, 1, 5))
        engine = build_engine(ALGO, placement)
        engine.run()
        agents = [engine.agent(agent_id) for agent_id in engine.agent_ids]
        # Exactly one leader must exist for this aperiodic layout.
        assert sum(1 for agent in agents if agent.is_leader) == 1

    def test_aperiodic_single_leader(self, rng):
        for _ in range(5):
            placement = random_placement(20, 5, rng)
            if placement.symmetry_degree != 1:
                continue
            engine = build_engine(ALGO, placement)
            engine.run()
            leaders = [
                agent_id
                for agent_id in engine.agent_ids
                if engine.agent(agent_id).is_leader
            ]
            assert len(leaders) == 1

    def test_periodic_leader_count_divides_k(self):
        placement = periodic_placement((2, 5, 3), 2)
        engine = build_engine(ALGO, placement)
        engine.run()
        leaders = sum(
            1 for agent_id in engine.agent_ids if engine.agent(agent_id).is_leader
        )
        assert leaders == 2  # symmetry degree of the layout

    def test_equidistant_all_leaders(self):
        placement = equidistant_placement(18, 6)
        engine = build_engine(ALGO, placement)
        engine.run()
        assert all(engine.agent(a).is_leader for a in engine.agent_ids)

    def test_sub_phase_count_is_logarithmic(self, rng):
        # phase <= ceil(log2 k) + 1 for every agent.
        for _ in range(5):
            placement = random_placement(40, 8, rng)
            engine = build_engine(ALGO, placement)
            engine.run()
            bound = math.ceil(math.log2(8)) + 1
            for agent_id in engine.agent_ids:
                assert engine.agent(agent_id).phase <= bound


class TestCorrectness:
    @pytest.mark.parametrize(
        "distances",
        [
            (5, 7, 4, 8),
            (1, 4, 2, 1, 2, 2),  # Figure 1(a)
            (1, 2, 3, 1, 2, 3),  # Figure 1(b)
            (2, 2, 2),  # uniform already
            (1, 1, 1, 9),
            (2, 2, 1, 5),
        ],
    )
    def test_exact_configurations(self, distances):
        result = run_experiment(ALGO, placement_from_distances(distances))
        assert result.ok, result.report.describe()

    @pytest.mark.parametrize("n,k", [(12, 4), (13, 4), (17, 5), (30, 6), (8, 8), (7, 2)])
    def test_random_placements(self, n, k, rng):
        for _ in range(3):
            result = run_experiment(ALGO, random_placement(n, k, rng))
            assert result.ok, result.report.describe()

    def test_single_agent(self):
        result = run_experiment(ALGO, Placement(ring_size=6, homes=(2,)))
        assert result.ok

    def test_quarter_packed(self):
        result = run_experiment(ALGO, quarter_packed_placement(32, 8))
        assert result.ok

    def test_follower_home_on_target_node(self):
        # Layout where a waiting follower's home coincides with a target
        # (the subtle Algorithm 3 hunting case): homes 0,1,2,5 on n=8,
        # leader emerges at home 1, targets {1,3,5,7}, follower home 5.
        result = run_experiment(ALGO, placement_from_distances((1, 1, 3, 3)))
        assert result.ok

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            KnownKLogSpaceAgent(-1)


class TestSchedulers:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_schedules(self, seed, rng):
        placement = random_placement(24, 6, rng)
        result = run_experiment(ALGO, placement, scheduler=RandomScheduler(seed))
        assert result.ok, result.report.describe()

    def test_laggard_adversary_on_leader(self, rng):
        # Starve agent 0 (often a leader candidate) aggressively.
        placement = random_placement(20, 5, rng)
        result = run_experiment(
            ALGO, placement, scheduler=LaggardScheduler([0], patience=120, seed=3)
        )
        assert result.ok

    def test_burst_adversary(self, rng):
        placement = random_placement(20, 5, rng)
        result = run_experiment(ALGO, placement, scheduler=BurstScheduler(40, seed=5))
        assert result.ok

    def test_follower_on_target_under_adversary(self):
        placement = placement_from_distances((1, 1, 3, 3))
        for seed in range(8):
            result = run_experiment(
                ALGO, placement, scheduler=RandomScheduler(seed)
            )
            assert result.ok, f"seed {seed}: {result.report.describe()}"


class TestComplexity:
    def test_memory_is_logarithmic(self, rng):
        # Memory must not grow with k (only with log n): compare k=4 and
        # k=16 on the same n.
        small_k = run_experiment(
            ALGO, random_placement(64, 4, rng), memory_audit_interval=1
        )
        large_k = run_experiment(
            ALGO, random_placement(64, 16, rng), memory_audit_interval=1
        )
        assert large_k.max_memory_bits <= small_k.max_memory_bits + 32

    def test_memory_much_smaller_than_full_algorithm(self, rng):
        placement = random_placement(128, 32, rng)
        logspace = run_experiment(ALGO, placement, memory_audit_interval=1)
        full = run_experiment("known_k_full", placement, memory_audit_interval=1)
        assert logspace.max_memory_bits < full.max_memory_bits / 2

    def test_time_is_n_log_k(self, rng):
        for n, k in [(24, 4), (48, 8)]:
            result = run_experiment(ALGO, random_placement(n, k, rng))
            assert result.ideal_time <= BOUNDS.max_ideal_time(n, k)

    def test_total_moves_bounded(self, rng):
        for n, k in [(24, 4), (48, 8)]:
            result = run_experiment(ALGO, random_placement(n, k, rng))
            assert result.total_moves <= BOUNDS.max_moves(n, k)


class TestMessages:
    def test_every_follower_receives_a_notice(self, rng):
        placement = random_placement(30, 6, rng)
        engine = build_engine(ALGO, placement)
        engine.run()
        followers = sum(
            1 for a in engine.agent_ids if engine.agent(a).is_leader is False
        )
        assert engine.metrics.messages_sent == followers
