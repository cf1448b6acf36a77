"""Tests for Algorithm 1 (knowledge of k, O(k log n) memory) — E1, E9."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.core.known_k_full import KnownKFullAgent
from repro.experiments.runner import run_experiment
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

ALGO = "known_k_full"
BOUNDS = get_algorithm(ALGO).bounds


class TestCorrectness:
    @pytest.mark.parametrize(
        "distances",
        [
            (5, 7, 4, 8),  # aperiodic, n = 24, k = 4
            (1, 4, 2, 1, 2, 2),  # Figure 1(a)
            (1, 2, 3, 1, 2, 3),  # Figure 1(b), periodic l = 2
            (3, 3, 3),  # already uniform, n = 9
            (1, 1, 1, 9),  # quarter-ish packing
        ],
    )
    def test_exact_configurations(self, distances):
        result = run_experiment(ALGO, placement_from_distances(distances))
        assert result.ok, result.report.describe()

    @pytest.mark.parametrize("n,k", [(12, 4), (13, 4), (17, 5), (30, 6), (9, 9), (7, 2)])
    def test_random_placements(self, n, k, rng):
        for _ in range(3):
            result = run_experiment(ALGO, random_placement(n, k, rng))
            assert result.ok, result.report.describe()

    def test_single_agent(self):
        # k = 1 is degenerate but legal: the agent halts at its home.
        result = run_experiment(ALGO, Placement(ring_size=7, homes=(3,)))
        assert result.ok
        assert result.final_positions == (3,)

    def test_already_uniform_stays_uniform(self):
        placement = equidistant_placement(20, 5)
        result = run_experiment(ALGO, placement)
        assert result.ok
        # Symmetry degree k: every agent is its own base; nobody moves
        # past its home after the selection circuit.
        assert result.final_positions == placement.homes

    def test_quarter_packed(self):
        result = run_experiment(ALGO, quarter_packed_placement(32, 8))
        assert result.ok

    def test_periodic_ring_multiple_bases(self):
        result = run_experiment(ALGO, periodic_placement((2, 5, 3), 2))
        assert result.ok

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            KnownKFullAgent(0)


class TestSchedulers:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_schedules(self, seed, rng):
        placement = random_placement(24, 6, rng)
        result = run_experiment(ALGO, placement, scheduler=RandomScheduler(seed))
        assert result.ok

    def test_laggard_adversary(self, rng):
        placement = random_placement(20, 5, rng)
        result = run_experiment(
            ALGO, placement, scheduler=LaggardScheduler([0, 2], patience=60, seed=1)
        )
        assert result.ok

    def test_burst_adversary(self, rng):
        placement = random_placement(20, 5, rng)
        result = run_experiment(ALGO, placement, scheduler=BurstScheduler(25, seed=2))
        assert result.ok

    def test_schedule_independence_of_final_set(self, rng):
        # The final occupied set is schedule-independent (deterministic
        # algorithm + deterministic placement).
        placement = random_placement(21, 7, rng)
        sync = run_experiment(ALGO, placement)
        for seed in range(3):
            async_result = run_experiment(
                ALGO, placement, scheduler=RandomScheduler(seed)
            )
            assert async_result.final_positions == sync.final_positions


class TestComplexity:
    def test_time_is_linear(self, rng):
        # Ideal time <= 3n + 5: one selection circuit + at most 2n deployment.
        for n, k in [(24, 4), (48, 8), (96, 8)]:
            result = run_experiment(ALGO, random_placement(n, k, rng))
            assert result.ideal_time <= BOUNDS.max_ideal_time(n, k)

    def test_total_moves_bounded_by_3kn(self, rng):
        for n, k in [(24, 4), (48, 8)]:
            result = run_experiment(ALGO, random_placement(n, k, rng))
            assert result.total_moves <= BOUNDS.max_moves(n, k)

    def test_memory_grows_with_k(self, rng):
        # O(k log n): doubling k roughly doubles the stored sequence.
        small = run_experiment(ALGO, random_placement(64, 4, rng), memory_audit_interval=1)
        large = run_experiment(ALGO, random_placement(64, 16, rng), memory_audit_interval=1)
        assert large.max_memory_bits > 2 * small.max_memory_bits / 1.5

    def test_memory_upper_bound(self, rng):
        # Bits <= c * k * log2(n) for a generous constant c.
        for n, k in [(32, 4), (64, 8), (128, 16)]:
            result = run_experiment(
                ALGO, random_placement(n, k, rng), memory_audit_interval=1
            )
            assert result.max_memory_bits <= 6 * k * math.log2(n) + 64


class TestDeterminism:
    def test_targets_are_rotation_of_uniform_pattern(self, rng):
        placement = random_placement(28, 7, rng)
        result = run_experiment(ALGO, placement)
        gaps = sorted(
            (b - a) % 28
            for a, b in zip(
                result.final_positions,
                result.final_positions[1:] + result.final_positions[:1],
            )
        )
        assert gaps == [4] * 7

    def test_base_node_is_min_rotation_home(self):
        # The agent whose rotation is minimal stays at its home (rank 0).
        placement = placement_from_distances((5, 7, 4, 8))
        result = run_experiment(ALGO, placement)
        from repro.analysis.sequences import minimal_rotation_index

        homes = placement.homes
        gaps = placement.distances
        base_index = minimal_rotation_index(gaps)
        assert homes[base_index] in result.final_positions
