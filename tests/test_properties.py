"""Property-based end-to-end tests (hypothesis) over all three algorithms.

These are the library's strongest correctness evidence: random initial
configurations x random fair schedules must always reach uniform
deployment, and the execution traces must respect the model invariants
of DESIGN.md Section 5 (FIFO no-overtaking, token monotonicity,
stayers-only visibility).  The per-action rules are checked by replaying
each run's activation log under the property oracle, the same checks
``repro mc`` and ``repro fuzz`` run.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import build_engine, run_experiment
from repro.mc.oracle import PropertyOracle, drive_schedule
from repro.registry import get_algorithm
from repro.ring.placement import Placement, random_placement
from repro.sim.scheduler import (
    BurstScheduler,
    ChaosScheduler,
    LaggardScheduler,
    RandomScheduler,
    SynchronousScheduler,
)
from repro.sim.trace import TraceEventKind, TraceRecorder

ALGORITHMS = ("known_k_full", "known_k_logspace", "unknown")


@st.composite
def placements(draw, max_n: int = 40):
    n = draw(st.integers(min_value=4, max_value=max_n))
    k = draw(st.integers(min_value=2, max_value=min(n, 8)))
    homes = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    return Placement(ring_size=n, homes=tuple(homes))


def schedulers(seed: int):
    return [
        SynchronousScheduler(),
        RandomScheduler(seed),
        LaggardScheduler([0], patience=50, seed=seed),
        BurstScheduler(burst=20, seed=seed),
        ChaosScheduler(epoch=25, seed=seed),
    ]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@given(placement=placements(), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_uniform_deployment_from_any_configuration(algorithm, placement, seed):
    scheduler = random.Random(seed).choice(schedulers(seed))
    result = run_experiment(algorithm, placement, scheduler=scheduler)
    assert result.ok, (
        f"{algorithm} failed on {placement.describe()} under "
        f"{scheduler.describe()}: {result.report.describe()}"
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@given(placement=placements(max_n=24))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_agent_releases_exactly_one_token(algorithm, placement):
    engine = build_engine(algorithm, placement)
    engine.run()
    assert engine.metrics.tokens_released == placement.agent_count
    # Tokens sit exactly on the home nodes, one each.
    tokens = engine.ring.tokens
    assert sum(tokens) == placement.agent_count
    assert all(tokens[home] == 1 for home in placement.homes)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@given(placement=placements(max_n=24), seed=st.integers(0, 999))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_no_overtaking_in_traces(algorithm, placement, seed):
    """Every link is FIFO: agents leave ``v`` in the order they reach ``v+1``.

    An agent that MOVEs out of node ``v`` is in transit on the link
    ``v -> v+1`` until its next ARRIVE, which must be at ``v+1``.  Per
    link, the sequence of agents in MOVE order must equal the sequence
    of those transits' ARRIVE order: any overtaking on a link shows up
    as two agents swapped.  Initial arrivals (an agent's first ARRIVE
    at its home queue, with no MOVE before it) are not transits and are
    left out.  The run is quiescent at the end, so no agent is still in
    transit and both sequences are complete.
    """
    kinds = (TraceEventKind.ARRIVE, TraceEventKind.MOVE)
    trace = TraceRecorder(keep=lambda e: e.kind in kinds)
    engine = build_engine(
        algorithm, placement, scheduler=RandomScheduler(seed), trace=trace
    )
    engine.run()
    n = placement.ring_size
    departures = {node: [] for node in range(n)}  # link v -> v+1, by v
    arrivals = {node: [] for node in range(n)}
    in_transit = {}  # agent -> the node its current link leads to
    for event in trace.events:
        if event.kind is TraceEventKind.MOVE:
            assert event.agent_id not in in_transit, event
            departures[event.node].append(event.agent_id)
            in_transit[event.agent_id] = (event.node + 1) % n
        elif event.agent_id in in_transit:
            destination = in_transit.pop(event.agent_id)
            assert event.node == destination, (event, destination)
            arrivals[(event.node - 1) % n].append(event.agent_id)
    assert not in_transit, f"agents still on a link at quiescence: {in_transit}"
    assert any(departures.values())
    for node in range(n):
        assert departures[node] == arrivals[node], (
            f"link {node}->{(node + 1) % n}: agents left in order "
            f"{departures[node]} but arrived in order {arrivals[node]}"
        )


def _assert_oracle_replay_holds(algorithm, placement, engine):
    """Replay a finished run's activation log under the property oracle.

    Every safety property holds after every action (FIFO link order and
    at most one token per action among them), the terminal properties
    hold at quiescence, and exactly ``k`` tokens lie on the ring there:
    with the one-per-action rule, that is one release per agent.
    """
    log = engine.activation_log
    oracle = PropertyOracle(algorithm, placement)
    replayed = oracle.fresh_engine()
    outcome = drive_schedule(oracle, log, max_steps=len(log) + 1, engine=replayed)
    where = f"{algorithm} on {placement.describe()}"
    assert outcome.executed == log, where
    assert outcome.ok, f"{where}: {outcome.violation}"
    assert sum(replayed.snapshot().tokens) == placement.agent_count, where


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_oracle_accepts_replayed_run(algorithm):
    placement = Placement(ring_size=20, homes=(0, 3, 9, 14))
    engine = build_engine(algorithm, placement)
    engine.run()
    _assert_oracle_replay_holds(algorithm, placement, engine)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_oracle_accepts_replayed_random_schedules(seed):
    rng = random.Random(seed)
    placement = random_placement(rng.randint(6, 24), rng.randint(2, 5), rng)
    algorithm = rng.choice(ALGORITHMS)
    engine = build_engine(algorithm, placement, scheduler=RandomScheduler(seed))
    engine.run()
    _assert_oracle_replay_holds(algorithm, placement, engine)


@given(placement=placements(max_n=30), seed=st.integers(0, 999))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_final_positions_schedule_independent(placement, seed):
    """Algorithm 1 is deterministic: the halted set ignores the schedule."""
    sync = run_experiment("known_k_full", placement)
    async_result = run_experiment(
        "known_k_full", placement, scheduler=RandomScheduler(seed)
    )
    assert sync.final_positions == async_result.final_positions


@given(placement=placements(max_n=30))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_all_algorithms_agree_on_gap_multiset(placement):
    """All three algorithms produce the same (uniform) gap multiset."""
    gaps = []
    for algorithm in ALGORITHMS:
        result = run_experiment(algorithm, placement)
        assert result.ok
        n = placement.ring_size
        ordered = sorted(result.final_positions)
        gaps.append(
            sorted(
                (ordered[(i + 1) % len(ordered)] - ordered[i]) % n or n
                for i in range(len(ordered))
            )
        )
    assert gaps[0] == gaps[1] == gaps[2]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@given(placement=placements(max_n=24), seed=st.integers(0, 2**16))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_moves_respect_kn_budget(algorithm, placement, seed):
    """Moves, and ideal time where counted, stay within the declared ceilings."""
    scheduler = random.Random(seed).choice(schedulers(seed))
    result = run_experiment(algorithm, placement, scheduler=scheduler)
    n, k = placement.ring_size, placement.agent_count
    bounds = get_algorithm(algorithm).bounds
    assert result.total_moves <= bounds.max_moves(n, k), scheduler.describe()
    if scheduler.counts_time:
        assert result.ideal_time <= bounds.max_ideal_time(n, k)
