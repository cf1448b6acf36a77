"""Parallel model checking: wave-synchronous frontier + placement pool.

Two orthogonal parallelisation axes over :mod:`repro.mc.checker`:

* :func:`check_placements_pool` — the embarrassingly parallel axis:
  whole placements of an ``(n, k)`` grid fan across a process pool,
  each worker running the ordinary serial DFS.  Results keep placement
  order, so the output is byte-identical to the serial grid.

* :func:`check_frontier` — intra-placement parallelism: a
  wave-synchronous (lockstep) breadth-first driver.  Each wave, the
  open frontier is partitioned by *memo ownership* — a state's owner
  shard is ``int(key) % jobs``, so exactly one shard ever stores a
  given canonical key — and the per-owner buckets are expanded by a
  process pool.  The master merges children in globally sorted
  ``(key, schedule)`` order, which makes every counter and the final
  verdict deterministic *and invariant in* ``jobs``: the ``--jobs 2``
  run reports the same numbers as ``--jobs 1`` (pinned by tests).

Both drivers share everything but the search loop: the instance's
:class:`~repro.mc.oracle.PropertyOracle` builds their engines and runs
their property checks, :func:`repro.mc.por.revisit` is their sleep-set
revisit rule and :meth:`~repro.mc.checker.MCResult.from_search` builds
their results.

Work items carry schedules, not engines: a worker rebuilds each state
by replaying the item's activation schedule on a fork of the oracle's
root engine.  That costs ``O(depth)`` steps per expanded state.
Engines are plain data and could be shipped instead; schedules are
what the frontier spills to disk and resumes from
(:mod:`repro.mc.frontier`): with ``store_root`` set, every wave is
committed to an append-only journal and a killed check resumes from the
last commit with identical cumulative stats.

The breadth-first driver retains every guarantee of the DFS *except*
livelock-cycle detection (there is no DFS path to find a back-edge
onto), so its results say ``liveness="not checked"``; the four paper
algorithms and the selftest bug are cycle-free, and the serial DFS
remains the default for plain ``repro mc``.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, List, Optional, Sequence, Tuple

from repro.mc.checker import Counterexample, MCResult, check_interleavings
from repro.mc.frontier import FrontierItem, FrontierSpill, ResumeState, check_spec
from repro.mc.oracle import AgentsFactory, PropertyOracle, Violation
from repro.mc.por import agents_of_slots, revisit, sleep_after, slots_of_agents
from repro.mc.properties import SafetyProperty, TerminalProperty
from repro.mc.state import SearchStats, capture_pre_state
from repro.ring.faults import LinkSpec
from repro.ring.placement import Placement

__all__ = ["check_frontier", "check_placements_pool"]


# ----------------------------------------------------------------------
# Placement-level pool (grids)
# ----------------------------------------------------------------------


def _check_placement_task(payload: tuple) -> MCResult:
    algorithm, placement, kwargs = payload
    return check_interleavings(algorithm, placement, **kwargs)


def check_placements_pool(
    algorithm: str,
    placements: Sequence[Placement],
    *,
    jobs: int,
    **kwargs,
) -> List[MCResult]:
    """Fan whole placements across a process pool, preserving order.

    Requires a registered ``algorithm`` name: ``factory`` callables and
    ``progress`` hooks cannot cross process boundaries.
    """
    if kwargs.get("factory") is not None:
        raise ValueError(
            "check_placements_pool needs a registered algorithm name; "
            "agent factories do not cross process boundaries"
        )
    kwargs.pop("factory", None)
    kwargs.pop("progress", None)
    placements = list(placements)
    if jobs <= 1 or len(placements) <= 1:
        return [
            check_interleavings(algorithm, placement, **kwargs)
            for placement in placements
        ]
    payloads = [(algorithm, placement, kwargs) for placement in placements]
    with multiprocessing.Pool(processes=min(jobs, len(placements))) as pool:
        return pool.map(_check_placement_task, payloads)


# ----------------------------------------------------------------------
# Wave-synchronous frontier driver
# ----------------------------------------------------------------------

#: Child record produced by a worker: (canonical key, schedule, sleep
#: slots, quiescent flag, terminal violation or None).
_Child = Tuple[bytes, Tuple[int, ...], frozenset, bool, Optional[Violation]]


def _journal_violation(violation: Violation, schedule: Tuple[int, ...]) -> dict:
    """A violation as its ``{"t": "x"}`` journal record."""
    return {
        "t": "x",
        "kind": violation.kind,
        "name": violation.property_name,
        "msg": violation.message,
        "sch": list(schedule),
    }


class _FrontierWorker:
    """Per-process expansion state: the instance's oracle + POR mode."""

    def __init__(self, oracle: PropertyOracle, por: bool) -> None:
        self.oracle = oracle
        self.por = por

    def expand(
        self, item: FrontierItem
    ) -> Tuple[int, int, List[_Child], List[dict]]:
        """Expand one frontier state; return (transitions, por_skipped,
        children, violations)."""
        engine = self.oracle.fork_root()
        for agent_id in item.schedule:
            engine.step(agent_id)
        enabled = engine.enabled_agents()
        snapshot = engine.snapshot()
        if item.restrict is not None:
            targets = sorted(agents_of_slots(snapshot, item.restrict))
            slept = set(enabled) - set(targets)
            por_skipped = 0
        else:
            slept = agents_of_slots(snapshot, item.sleep)
            targets = [a for a in enabled if a not in slept]
            por_skipped = len(enabled) - len(targets)
        children: List[_Child] = []
        violations: List[dict] = []
        for index, agent_id in enumerate(targets):
            child = engine.fork() if index < len(targets) - 1 else engine
            if self.por and slept:
                child_sleep = sleep_after(
                    child, slept, agent_id, self.oracle.placement.ring_size
                )
            else:
                child_sleep = set()
            pre = capture_pre_state(child)
            child.step(agent_id)
            schedule = item.schedule + (agent_id,)
            child_snapshot = child.snapshot()
            violation = self.oracle.check_step(pre, child, child_snapshot, agent_id)
            if violation is not None:
                violations.append(_journal_violation(violation, schedule))
                continue  # never explore past a violating state
            key = child_snapshot.canonical_key()
            sleep_slots = slots_of_agents(child_snapshot, child_sleep)
            quiescent = child.quiescent
            term = None
            if quiescent:
                term = self.oracle.check_terminal(child, child_snapshot)
            children.append((key, schedule, sleep_slots, quiescent, term))
            slept.add(agent_id)
        return len(targets), por_skipped, children, violations


_WORKER: Optional[_FrontierWorker] = None


def _init_frontier_worker(
    algorithm: str,
    placement: Placement,
    safety: Tuple[SafetyProperty, ...],
    terminal: Tuple[TerminalProperty, ...],
    links: Optional[LinkSpec],
    por: bool,
) -> None:
    global _WORKER
    oracle = PropertyOracle(
        algorithm, placement, safety=safety, terminal=terminal, links=links
    )
    _WORKER = _FrontierWorker(oracle, por)


def _expand_batch(
    items: List[FrontierItem], worker: Optional[_FrontierWorker] = None
) -> Tuple[int, int, List[_Child], List[dict]]:
    """Expand one owner bucket, in a pool process or (given ``worker``)
    in process."""
    worker = worker or _WORKER
    assert worker is not None
    transitions = 0
    por_skipped = 0
    children: List[_Child] = []
    violations: List[dict] = []
    for item in items:
        t, p, c, v = worker.expand(item)
        transitions += t
        por_skipped += p
        children.extend(c)
        violations.extend(v)
    return transitions, por_skipped, children, violations


def _owner(key: bytes, jobs: int) -> int:
    return int.from_bytes(key[:8], "big") % jobs


def check_frontier(
    algorithm: str,
    placement: Placement,
    *,
    jobs: int = 1,
    por: bool = True,
    store_root: Optional[str] = None,
    resume: bool = False,
    factory: Optional[AgentsFactory] = None,
    require_halted: Optional[bool] = None,
    require_suspended: Optional[bool] = None,
    safety: Optional[Sequence[SafetyProperty]] = None,
    terminal: Optional[Sequence[TerminalProperty]] = None,
    depth_limit: Optional[int] = None,
    max_states: Optional[int] = None,
    stop_at_first: bool = True,
    links: Optional[LinkSpec] = None,
    progress: Optional[Callable[[SearchStats], None]] = None,
) -> MCResult:
    """Breadth-first, optionally parallel and disk-spilled exploration.

    Semantics match :func:`check_interleavings` (same properties, same
    POR, same verdicts) except that livelock cycles are not detected —
    the result says ``liveness="not checked"`` — and ``stop_at_first``
    stops at wave granularity.  ``jobs > 1`` requires a registered
    ``algorithm`` name; ``store_root`` spills every wave to
    ``<store_root>/mc/<check-hash>/`` and ``resume=True`` continues a
    previously killed run (a completed run's stored result is returned
    directly).  ``links`` behaves as in
    :func:`check_interleavings`: fault-aware properties, link-actor
    branches, and sleep sets forced off (see :mod:`repro.mc.por`); the
    wave-merge discipline keeps the verdict ``jobs``-invariant on
    faulty instances exactly as on reliable ones.
    """
    if jobs > 1 and factory is not None:
        raise ValueError(
            "check_frontier(jobs>1) needs a registered algorithm name; "
            "agent factories do not cross process boundaries"
        )
    oracle = PropertyOracle(
        algorithm, placement, factory=factory, safety=safety, terminal=terminal,
        require_halted=require_halted, require_suspended=require_suspended, links=links,
    )
    por = por and oracle.links is None  # faults: moves share one draw stream

    spill: Optional[FrontierSpill] = None
    resumed: Optional[ResumeState] = None
    if store_root is not None:
        spec = check_spec(
            algorithm,
            placement,
            por=por,
            depth_limit=depth_limit,
            max_states=max_states,
            stop_at_first=stop_at_first,
            safety_props=oracle.safety,
            terminal_props=oracle.terminal,
            links=oracle.links,
        )
        spill = FrontierSpill(store_root, spec)
        if resume:
            stored = spill.load_result()
            if stored is not None:
                return MCResult.from_dict(stored)
            resumed = spill.resume_state()

    if resumed is not None:
        wave = resumed.wave
        visited = resumed.visited
        frontier = resumed.frontier
        stats = resumed.stats
        violation_records = list(resumed.violations)
        terminal_keys = list(resumed.terminal_keys)
        if violation_records and stop_at_first:
            # The killed run had already found its violation; don't
            # explore further, just finalise the stored state.
            frontier = []
    else:
        root_key = oracle.fork_root().snapshot().canonical_key()
        wave = 0
        visited = {root_key: frozenset()}
        frontier = [FrontierItem(key=root_key, schedule=())]
        stats = SearchStats(explored=1)
        violation_records = []
        terminal_keys = []
        if spill is not None:
            spill.start_fresh()
            spill.append_wave(
                0, [(root_key, frozenset())], frontier, [], [], stats
            )

    complete = not stats.truncated
    pool = None
    worker = _FrontierWorker(oracle, por)  # expands in process when jobs == 1
    if jobs > 1:
        pool = multiprocessing.Pool(
            processes=jobs,
            initializer=_init_frontier_worker,
            initargs=(
                algorithm,
                placement,
                oracle.safety,
                oracle.terminal,
                oracle.links,
                por,
            ),
        )

    try:
        while frontier:
            if max_states is not None and stats.explored >= max_states:
                complete = False
                break
            buckets: List[List[FrontierItem]] = [[] for _ in range(max(jobs, 1))]
            for item in frontier:
                buckets[_owner(item.key, max(jobs, 1))].append(item)
            for bucket in buckets:
                bucket.sort(key=lambda item: (item.key, item.schedule))
            occupied = [bucket for bucket in buckets if bucket]
            if pool is not None:
                parts = pool.map(_expand_batch, occupied)
            else:
                parts = [_expand_batch(bucket, worker) for bucket in occupied]

            wave_violations: List[dict] = []
            children: List[_Child] = []
            for transitions, por_skipped, part_children, part_violations in parts:
                stats.transitions += transitions
                stats.por_skipped += por_skipped
                children.extend(part_children)
                wave_violations.extend(part_violations)
            children.sort(key=lambda child: (child[0], child[1]))

            wave_terminal_keys: List[str] = []
            visited_delta: List[Tuple[bytes, frozenset]] = []
            next_frontier: List[FrontierItem] = []
            hit_max_states = False
            for key, schedule, sleep_slots, quiescent, term in children:
                if len(schedule) > stats.max_depth:
                    stats.max_depth = len(schedule)
                stored = visited.get(key)
                if stored is not None:
                    stats.deduped += 1
                    reopened = revisit(stored, sleep_slots)
                    if reopened is not None:
                        reopen, merged = reopened
                        visited[key] = merged
                        visited_delta.append((key, merged))
                        next_frontier.append(
                            FrontierItem(
                                key=key,
                                schedule=schedule,
                                sleep=merged,
                                restrict=tuple(sorted(reopen)),
                            )
                        )
                    continue
                visited[key] = sleep_slots
                visited_delta.append((key, sleep_slots))
                stats.explored += 1
                if quiescent:
                    stats.terminals += 1
                    wave_terminal_keys.append(key.hex())
                    if term is not None:
                        wave_violations.append(_journal_violation(term, schedule))
                    continue
                if depth_limit is not None and len(schedule) >= depth_limit:
                    stats.truncated += 1
                    complete = False
                    continue
                if max_states is not None and stats.explored >= max_states:
                    hit_max_states = True
                    break
                next_frontier.append(
                    FrontierItem(key=key, schedule=schedule, sleep=sleep_slots)
                )

            terminal_keys.extend(wave_terminal_keys)
            violation_records.extend(wave_violations)
            wave += 1
            if spill is not None:
                spill.append_wave(
                    wave,
                    visited_delta,
                    next_frontier,
                    wave_violations,
                    wave_terminal_keys,
                    stats,
                )
            frontier = next_frontier
            if progress is not None:
                progress(stats)
            if hit_max_states:
                complete = False
                break
            if wave_violations and stop_at_first:
                break
    finally:
        if pool is not None:
            pool.close()
            pool.join()

    violations = [
        Counterexample.of(
            oracle, Violation(entry["kind"], entry["name"], entry["msg"]), entry["sch"]
        )
        for entry in violation_records
    ]
    result = MCResult.from_search(
        oracle, stats, visited, violations, terminal_keys,
        complete=complete, stop_at_first=stop_at_first, liveness="not checked",
    )
    if spill is not None:
        spill.finish(result.to_dict())
    return result
