"""Tests for Algorithms 4-6 (no knowledge of k or n) — E4, E12-E15."""

from __future__ import annotations


import pytest

from repro.analysis.sequences import is_fourfold_repetition
from repro.experiments.runner import build_engine, run_experiment
from repro.experiments.table1 import symmetry_placement
from repro.ring.placement import (
    Placement,
    equidistant_placement,
    periodic_placement,
    placement_from_distances,
    quarter_packed_placement,
    random_placement,
)
from repro.sim.scheduler import BurstScheduler, LaggardScheduler, RandomScheduler

ALGO = "unknown"


def _figure9_placement() -> Placement:
    """Figure 9: n = 27, k = 9 with the periodic-looking subsequence.

    Agent a2's neighbourhood reads distances (1,3,1,3,1,3,1,3), so it
    misestimates n' = 4; the whole sequence contains an 11 so the ring
    is aperiodic and some agent estimates 27.
    """
    return placement_from_distances((11, 1, 3, 1, 3, 1, 3, 1, 3))


class TestEstimatingPhase:
    def test_figure8_misestimate(self):
        # An agent whose first eight distances are (1,3)^4 stops with
        # n' = 4, k' = 2 (Figure 8).
        placement = _figure9_placement()
        engine = build_engine(ALGO, placement)
        engine.run()
        estimates = sorted(
            engine.agent(agent_id).n_est for agent_id in engine.agent_ids
        )
        # Everyone ends with the correct estimate after corrections...
        assert estimates == [27] * 9
        # ...and the run still achieved uniform deployment.
        from repro.analysis.verification import verify_uniform_deployment

        assert verify_uniform_deployment(engine, require_suspended=True).ok

    def test_figure9_some_agent_misestimates_then_recovers(self):
        # Track the estimate history: at least one agent must first
        # adopt n' = 4 (the (1,3)^4 trap) and later hold n' = 27.
        placement = _figure9_placement()
        engine = build_engine(ALGO, placement)
        saw_misestimate = False
        for _ in range(10_000):
            if engine.quiescent:
                break
            engine.run_rounds(1)
            for agent_id in engine.agent_ids:
                if engine.agent(agent_id).n_est == 4:
                    saw_misestimate = True
        assert engine.quiescent
        assert saw_misestimate
        assert all(engine.agent(a).n_est == 27 for a in engine.agent_ids)

    def test_lemma3_wrong_estimates_at_most_half(self, rng):
        # Any wrong estimate n' satisfies n' <= n/2 (Lemma 3).
        for _ in range(10):
            n = rng.randint(8, 40)
            k = rng.randint(2, min(8, n // 2))
            placement = random_placement(n, k, rng)
            engine = build_engine(ALGO, placement)
            engine.run()
            for agent_id in engine.agent_ids:
                estimate = engine.agent(agent_id).n_est
                fundamental = n // placement.symmetry_degree
                assert estimate == fundamental or estimate <= n // 2

    def test_lemma4_correct_agent_exists_in_aperiodic_ring(self, rng):
        # In aperiodic rings at least one agent estimates n (Lemma 4);
        # our engine runs to quiescence, by which point Lemma 5 forces
        # *all* agents to n.  Check the stronger final property.
        for _ in range(10):
            placement = random_placement(rng.randint(10, 36), rng.randint(2, 6), rng)
            if placement.symmetry_degree != 1:
                continue
            engine = build_engine(ALGO, placement)
            engine.run()
            assert all(
                engine.agent(a).n_est == placement.ring_size
                for a in engine.agent_ids
            )

    def test_estimates_store_fourfold_sequences(self, rng):
        placement = random_placement(24, 4, rng)
        engine = build_engine(ALGO, placement)
        engine.run()
        for agent_id in engine.agent_ids:
            agent = engine.agent(agent_id)
            assert is_fourfold_repetition(tuple(agent.D))
            assert agent.k_est == len(agent.D) // 4
            assert agent.n_est == sum(agent.D[: agent.k_est])


class TestPeriodicRings:
    def test_figure11_fundamental_estimate(self):
        # Figure 11: a (6,2)-node ring — n = 12, fundamental ring N = 6.
        # All agents estimate 6 and still reach uniform deployment.
        placement = periodic_placement((1, 2, 3), 2)
        engine = build_engine(ALGO, placement)
        engine.run()
        assert all(engine.agent(a).n_est == 6 for a in engine.agent_ids)
        from repro.analysis.verification import verify_uniform_deployment

        assert verify_uniform_deployment(engine, require_suspended=True).ok

    def test_figure11_total_moves_twelve_circuits(self):
        # Each agent moves 12 * N + deployment: for the (6,2) ring every
        # agent makes 12*6 = 72 moves before its final (<= 2N) walk.
        placement = periodic_placement((1, 2, 3), 2)
        engine = build_engine(ALGO, placement)
        engine.run()
        for agent_id in engine.agent_ids:
            agent = engine.agent(agent_id)
            assert 72 <= agent.nodes <= 72 + 2 * 6

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_periodic_rings_various_degrees(self, degree):
        placement = periodic_placement((2, 5, 3), degree)
        result = run_experiment(ALGO, placement)
        assert result.ok, result.report.describe()

    def test_symmetry_placement_helper(self):
        placement = symmetry_placement(48, 8, 4, seed=9)
        assert placement.symmetry_degree == 4
        assert run_experiment(ALGO, placement).ok


class TestCorrectness:
    @pytest.mark.parametrize(
        "distances",
        [
            (5, 7, 4, 8),
            (1, 4, 2, 1, 2, 2),
            (1, 2, 3, 1, 2, 3),
            (3, 3, 3),
            (1, 1, 1, 9),
            (11, 1, 3, 1, 3, 1, 3, 1, 3),  # Figure 9
        ],
    )
    def test_exact_configurations(self, distances):
        result = run_experiment(ALGO, placement_from_distances(distances))
        assert result.ok, result.report.describe()

    @pytest.mark.parametrize("n,k", [(12, 4), (13, 4), (17, 5), (9, 9), (7, 2), (26, 6)])
    def test_random_placements(self, n, k, rng):
        for _ in range(3):
            result = run_experiment(ALGO, random_placement(n, k, rng))
            assert result.ok, result.report.describe()

    def test_single_agent(self):
        result = run_experiment(ALGO, Placement(ring_size=5, homes=(1,)))
        assert result.ok

    def test_quarter_packed(self):
        result = run_experiment(ALGO, quarter_packed_placement(32, 8))
        assert result.ok

    def test_equidistant(self):
        result = run_experiment(ALGO, equidistant_placement(20, 5))
        assert result.ok


class TestSchedulers:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_schedules(self, seed, rng):
        placement = random_placement(20, 5, rng)
        result = run_experiment(ALGO, placement, scheduler=RandomScheduler(seed))
        assert result.ok, result.report.describe()

    def test_laggard_adversary(self, rng):
        placement = placement_from_distances((11, 1, 3, 1, 3, 1, 3, 1, 3))
        result = run_experiment(
            ALGO, placement, scheduler=LaggardScheduler([1, 2], patience=80, seed=7)
        )
        assert result.ok

    def test_burst_adversary(self, rng):
        placement = random_placement(18, 4, rng)
        result = run_experiment(ALGO, placement, scheduler=BurstScheduler(30, seed=1))
        assert result.ok

    def test_figure9_under_many_schedules(self):
        placement = _figure9_placement()
        for seed in range(5):
            result = run_experiment(
                ALGO, placement, scheduler=RandomScheduler(seed)
            )
            assert result.ok, f"seed {seed}"


class TestAdaptivity:
    def test_moves_shrink_with_symmetry_degree(self):
        # Theorem 6: O(kn/l) moves — doubling l should roughly halve
        # the total moves on the same (n, k).
        results = {
            degree: run_experiment(
                ALGO, symmetry_placement(48, 8, degree, seed=3)
            )
            for degree in (1, 2, 4)
        }
        assert results[2].total_moves < results[1].total_moves * 0.75
        assert results[4].total_moves < results[2].total_moves * 0.75

    def test_time_shrinks_with_symmetry_degree(self):
        results = {
            degree: run_experiment(
                ALGO, symmetry_placement(48, 8, degree, seed=3)
            )
            for degree in (1, 4)
        }
        assert results[4].ideal_time < results[1].ideal_time * 0.5

    def test_memory_shrinks_with_symmetry_degree(self):
        results = {
            degree: run_experiment(
                ALGO,
                symmetry_placement(48, 8, degree, seed=3),
                memory_audit_interval=1,
            )
            for degree in (1, 4)
        }
        assert results[4].max_memory_bits < results[1].max_memory_bits


class TestMoveBudget:
    def test_paper_move_budget_14n(self, rng):
        # Unless corrected, an agent moves at most 14 n' <= 14 n; with
        # corrections the chain stays under 14 n too (Lemma 5).
        for _ in range(5):
            placement = random_placement(24, 4, rng)
            engine = build_engine(ALGO, placement)
            engine.run()
            for agent_id in engine.agent_ids:
                assert engine.metrics.moves_per_agent.get(agent_id, 0) <= 14 * 24


class TestPeriodicConvergenceProperty:
    """Hypothesis: random periodic rings converge to the fundamental N."""

    def test_random_periodic_rings(self):
        import random as _random

        from repro.ring.placement import periodic_placement, random_aperiodic_block

        rng = _random.Random(0xFEED)
        for _ in range(8):
            block = random_aperiodic_block(rng.randint(2, 4), 5, rng)
            degree = rng.randint(2, 4)
            placement = periodic_placement(block, degree)
            engine = build_engine(ALGO, placement)
            engine.run()
            fundamental = sum(block)
            estimates = {engine.agent(a).n_est for a in engine.agent_ids}
            assert estimates == {fundamental}, (
                f"block={block} degree={degree}: estimates {estimates} "
                f"!= fundamental {fundamental}"
            )
            from repro.analysis.verification import verify_uniform_deployment

            assert verify_uniform_deployment(engine, require_suspended=True).ok


class TestWrongEstimatePath:
    """Algorithm 5's ``PatrolInfo`` reaching a prematurely suspended
    agent, and Algorithm 6's adoption.  Four equal consecutive gaps
    shorter than k make an agent estimate too small a ring; the routine
    grids (k <= 3) never build that."""

    DISTANCES = (1, 1, 1, 1, 4)

    @staticmethod
    def _count(monkeypatch, *names):
        from repro.core.unknown import UnknownKAgent

        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(UnknownKAgent, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(UnknownKAgent, name, counted)
        return calls

    @pytest.mark.parametrize(
        "scheduler", ["sync", "random", "burst", "chaos", "laggard"]
    )
    def test_single_run_patrols_and_adopts(self, monkeypatch, scheduler):
        from repro.spec import ExperimentSpec, PlacementSpec

        calls = self._count(monkeypatch, "_patrol_info", "_adopt")
        spec = ExperimentSpec(
            algorithm=ALGO,
            placement=PlacementSpec(
                kind="distances", distances=self.DISTANCES
            ),
            scheduler=scheduler,
        )
        result = run_experiment(spec)
        assert result.ok and result.row()["uniform"]
        assert calls["_patrol_info"] >= 1
        assert calls["_adopt"] >= 1

    @pytest.mark.mc
    def test_exhaustive_check_covers_patrol_info(self, monkeypatch):
        from repro.mc import check_interleavings

        calls = self._count(monkeypatch, "_patrol_info")
        result = check_interleavings(
            ALGO, placement_from_distances((1, 1, 1, 1, 2))
        )
        assert result.complete and result.ok
        assert result.explored == 192_128
        assert calls["_patrol_info"] > 0
