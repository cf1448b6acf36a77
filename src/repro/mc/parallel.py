"""The model checker's one search loop, and its one placement fan-out.

* :func:`check_frontier` — a wave-synchronous (lockstep) breadth-first
  search, and the only one: :func:`repro.mc.checker.check_interleavings`
  forwards to it.  Each wave, the open frontier is expanded in process
  by :func:`_expand_batch`, and the children are merged in globally
  sorted ``(key, schedule)`` order, which makes every counter, every
  counterexample and the final verdict deterministic.  One search never
  leaves its process: ``jobs`` has no effect on it (pinned by tests).

* :func:`check_placements` — every grid goes through it
  (:func:`repro.mc.checker.exhaust_placements` and ``repro mc``): one
  search per placement, each a work item of
  :func:`repro.executor.completed` (in this process at ``jobs=1``,
  else on its pool).  Results keep placement order, so the output is
  identical at every ``jobs``, spilled or not.

Expansion never replays.  Each :class:`~repro.mc.frontier.FrontierItem`
carries a live engine at its state, the snapshot already taken of it
and its concrete sleep set; expansion steps forks of that engine, and
its children carry their own.  With ``store_root`` set every wave is
committed to an append-only journal (:mod:`repro.mc.frontier`) that
records each open item as its parent's index in the previous wave's
frontier plus the acting agent, so ``resume=True`` rebuilds the
schedules wave by wave and each reloaded item's engine once by
replaying its schedule, and a killed check finishes with identical
cumulative stats.

Livelock cycles are searched after the loop, over the explored graph.
The merge records every successor edge between explored, non-violating
states as a pair of canonical keys (and journals it); an iterative
strongly-connected-component pass (Tarjan 1972) over the non-terminal
states finds the cycles, and each is reported as a lasso schedule: a
shortest key path from the root into the cycle, then once around it,
walked from a fresh root engine by taking the lowest enabled actor
whose child has the next key (one exists by equivariance).  Under POR
the explored graph is the sleep-set-reduced one (see
:mod:`repro.mc.por`).

Everything but the loop is shared: the instance's
:class:`~repro.mc.oracle.PropertyOracle` builds the engines and runs
the property checks, :func:`repro.mc.por.revisit` is the sleep-set
revisit rule and :meth:`~repro.mc.checker.MCResult.from_search` builds
the result.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.errors import CampaignInterrupted
from repro.executor import completed, in_process
from repro.mc.checker import Counterexample, MCResult, _cycle_message
from repro.mc.frontier import FrontierItem, FrontierSpill, ResumeState, check_spec
from repro.mc.oracle import AgentsFactory, PropertyOracle, Violation
from repro.mc.por import agents_of_slots, revisit, sleep_after, slots_of_agents
from repro.mc.properties import SafetyProperty, TerminalProperty
from repro.mc.state import SearchStats
from repro.ring.faults import LinkSpec
from repro.ring.placement import Placement

__all__ = ["check_frontier", "check_placements"]

#: ``progress`` is called at the end of each wave in which the
#: transition count crosses a multiple of this.
PROGRESS_EVERY = 5000


# ----------------------------------------------------------------------
# Placements of a grid, through the one executor
# ----------------------------------------------------------------------


def _check_placement_task(payload: tuple) -> Tuple[int, MCResult]:
    index, algorithm, placement, options = payload
    return index, check_frontier(algorithm, placement, **options)


def check_placements(
    algorithm: str,
    placements: Sequence[Placement],
    *,
    jobs: int = 1,
    **options,
) -> List[MCResult]:
    """Run :func:`check_frontier` on each placement, in placement order.

    Whole placements go through :func:`repro.executor.completed`: one
    after another in this process at ``jobs == 1`` or for a single
    placement, else across its pool.  Each placement is one search
    either way, so every ``jobs`` returns the same results.

    ``options`` are :func:`check_frontier`'s: with ``store_root`` each
    placement journals to its own ``<store_root>/mc/<check-hash>/`` and
    ``resume`` applies to each.  ``progress`` is called only when the
    searches run in this process.  A ``factory`` is refused at
    ``jobs > 1``: a callable does not cross process boundaries, so a
    pool needs a registered ``algorithm`` name.  A ``KeyboardInterrupt``
    raises :class:`~repro.errors.CampaignInterrupted` carrying the
    finished placements' results, in placement order.
    """
    if jobs > 1 and options.get("factory") is not None:
        raise ValueError(
            "check_placements needs a registered algorithm name at jobs > 1; "
            "agent factories do not cross process boundaries"
        )
    placements = list(placements)
    if not in_process(jobs, len(placements)):
        options.pop("progress", None)  # a callback does not cross either
    payloads = [
        (index, algorithm, placement, options)
        for index, placement in enumerate(placements)
    ]
    finished: Dict[int, MCResult] = {}
    try:
        for index, result in completed(_check_placement_task, payloads, jobs):
            finished[index] = result
    except KeyboardInterrupt:
        store_root = options.get("store_root")
        hint = (
            "no store was attached; re-run with --store DIR to make the "
            "check resumable" if store_root is None
            else f"re-run the same check with --store {store_root} --resume"
        )
        raise CampaignInterrupted(
            f"model check interrupted: {len(finished)} of {len(placements)} "
            f"placements checked",
            outcome=[finished[index] for index in sorted(finished)],
            resume_hint=hint,
        ) from None
    return [finished[index] for index in range(len(placements))]


# ----------------------------------------------------------------------
# Wave-synchronous frontier driver
# ----------------------------------------------------------------------


class _Child(NamedTuple):
    """One successor of an expanded state: the item to merge (engine
    attached), the canonical key of the state it was reached from, and
    whether it is quiescent with its terminal violation, if any."""

    item: FrontierItem
    parent: bytes
    quiescent: bool
    term: Optional[Violation]


def _journal_violation(violation: Violation, schedule: Tuple[int, ...]) -> dict:
    """A violation as its ``{"t": "x"}`` journal record."""
    return {
        "t": "x",
        "kind": violation.kind,
        "name": violation.property_name,
        "msg": violation.message,
        "sch": list(schedule),
    }


class _Expander:
    """Expansion state of one search: the instance's oracle + POR mode."""

    def __init__(self, oracle: PropertyOracle, por: bool) -> None:
        self.oracle = oracle
        self.por = por

    def expand(
        self, item: FrontierItem, position: int
    ) -> Tuple[int, int, List[_Child], List[dict]]:
        """Expand the frontier state at ``position`` from its live
        engine; return (transitions, por_skipped, children, violations)."""
        engine = item.engine
        enabled = engine.enabled_agents()
        if item.restrict is not None:
            targets = sorted(agents_of_slots(item.snapshot, item.restrict))
            slept = set(enabled) - set(targets)
            por_skipped = 0
        else:
            slept = set(item.slept)
            targets = [a for a in enabled if a not in slept]
            por_skipped = len(enabled) - len(targets)
        children: List[_Child] = []
        violations: List[dict] = []
        for index, agent_id in enumerate(targets):
            child = engine.fork() if index < len(targets) - 1 else engine
            # Sleep inheritance is decided against the *source* state's
            # agent locations, so compute it before the child steps.
            if self.por and slept:
                child_sleep = sleep_after(
                    child, slept, agent_id, self.oracle.placement.ring_size
                )
            else:
                child_sleep = set()
            child.step(agent_id)
            schedule = item.schedule + (agent_id,)
            child_snapshot = child.snapshot()
            violation = self.oracle.check_step(
                item.snapshot, child, child_snapshot, agent_id
            )
            if violation is not None:
                violations.append(_journal_violation(violation, schedule))
                continue  # never explore past a violating state
            quiescent = child.quiescent
            term = None
            if quiescent:
                term = self.oracle.check_terminal(child, child_snapshot)
            successor = FrontierItem(
                key=child_snapshot.canonical_key(),
                schedule=schedule,
                sleep=slots_of_agents(child_snapshot, child_sleep),
                engine=child,
                snapshot=child_snapshot,
                slept=frozenset(child_sleep),
                parent=position,
            )
            children.append(_Child(successor, item.key, quiescent, term))
            slept.add(agent_id)
        return len(targets), por_skipped, children, violations


def _expand_batch(
    items: List[FrontierItem], expander: _Expander
) -> Tuple[int, int, List[_Child], List[dict]]:
    """Expand one wave's frontier, in order: each child records its
    parent's position in ``items`` (its journal ``p``)."""
    transitions = 0
    por_skipped = 0
    children: List[_Child] = []
    violations: List[dict] = []
    for position, item in enumerate(items):
        t, p, c, v = expander.expand(item, position)
        transitions += t
        por_skipped += p
        children.extend(c)
        violations.extend(v)
    return transitions, por_skipped, children, violations


def _restore(oracle: PropertyOracle, item: FrontierItem) -> FrontierItem:
    """Attach a live engine to a journaled item by replaying its schedule
    (resume only: a running search hands engines on)."""
    engine = oracle.fork_root()
    for agent_id in item.schedule:
        engine.step(agent_id)
    snapshot = engine.snapshot()
    return replace(
        item,
        engine=engine,
        snapshot=snapshot,
        slept=frozenset(agents_of_slots(snapshot, item.sleep)),
    )


# ----------------------------------------------------------------------
# Livelock cycles in the explored graph
# ----------------------------------------------------------------------


def _cyclic_components(edges: Dict[bytes, List[bytes]]) -> List[Set[bytes]]:
    """The strongly connected components of ``edges`` that hold a cycle.

    Tarjan's algorithm with an explicit stack, so deep state graphs do
    not hit the recursion limit.  A component holds a cycle when it has
    two or more states, or one state with a self-loop.
    """
    index: Dict[bytes, int] = {}
    low: Dict[bytes, int] = {}
    stack: List[bytes] = []
    on_stack: Set[bytes] = set()
    components: List[Set[bytes]] = []
    for start in edges:
        if start in index:
            continue
        index[start] = low[start] = len(index)
        stack.append(start)
        on_stack.add(start)
        work = [(start, iter(edges[start]))]
        while work:
            node, successors = work[-1]
            for successor in successors:
                if successor not in index:
                    index[successor] = low[successor] = len(index)
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(edges.get(successor, ()))))
                    break
                if successor in on_stack:
                    low[node] = min(low[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    if len(component) > 1 or node in edges.get(node, ()):
                        components.append(component)
    return components


def _bfs_tree(
    edges: Dict[bytes, List[bytes]], start: bytes, within: Optional[Set[bytes]] = None
) -> Dict[bytes, Optional[bytes]]:
    """Breadth-first parent pointers from ``start`` (optionally only
    through ``within``), in discovery order: nearest states first."""
    parents: Dict[bytes, Optional[bytes]] = {start: None}
    queue = deque([start])
    while queue:
        key = queue.popleft()
        for successor in edges.get(key, ()):
            if successor not in parents and (within is None or successor in within):
                parents[successor] = key
                queue.append(successor)
    return parents


def _path_to(parents: Dict[bytes, Optional[bytes]], key: bytes) -> List[bytes]:
    """The tree path from the root of ``parents`` to ``key``."""
    path = [key]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return path[::-1]


def _livelock_lassos(
    edges: Dict[bytes, List[bytes]], root: bytes, first_only: bool
) -> List[List[bytes]]:
    """One key lasso per cyclic component, nearest component first.

    ``edges`` lists each state's successors in sorted order.  A lasso is
    a shortest key path from ``root`` to the component's first state in
    breadth-first order, then a shortest cycle from that state back to
    itself inside the component.
    """
    components = _cyclic_components(edges)
    if not components:
        return []
    component_of = {key: i for i, members in enumerate(components) for key in members}
    tree = _bfs_tree(edges, root)
    lassos: List[List[bytes]] = []
    seen: Set[int] = set()
    for entry in tree:
        found = component_of.get(entry)
        if found is None or found in seen:
            continue
        seen.add(found)
        inside = _bfs_tree(edges, entry, components[found])
        last = next(key for key in inside if entry in edges[key])
        lassos.append(_path_to(tree, entry) + _path_to(inside, last)[1:] + [entry])
        if first_only:
            break
    return lassos


def _lasso_schedule(oracle: PropertyOracle, keys: List[bytes]) -> Tuple[int, ...]:
    """Walk a key path from a fresh root engine; return its schedule.

    Each step takes the lowest enabled actor whose child has the next
    canonical key.  The edge was recorded from some engine at the same
    canonical state, so by equivariance one of this engine's actors
    reaches it too.
    """
    engine = oracle.fork_root()
    schedule: List[int] = []
    for target in keys[1:]:
        for actor in engine.enabled_agents():
            child = engine.fork()
            child.step(actor)
            if child.snapshot().canonical_key() == target:
                break
        else:
            raise AssertionError("no enabled actor reaches a recorded successor")
        engine = child
        schedule.append(actor)
    return tuple(schedule)


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
    progress: Optional[Callable[[Dict[str, int]], None]] = None,
) -> MCResult:
    """Exhaust every fair interleaving from ``placement`` under ``algorithm``.

    ``factory`` overrides agent construction (used to inject broken
    variants); ``algorithm`` then only labels the result, and the
    terminal requirement must be derivable (registered name) or given
    explicitly via ``require_halted`` / ``require_suspended``.
    ``safety`` and ``terminal`` replace the default property suites.

    ``depth_limit`` bounds the schedule prefix length and ``max_states``
    the visited-state count; hitting either leaves ``complete=False``
    (the result is then a bounded check, not a proof).  With
    ``stop_at_first`` (the default) the search stops at the end of the
    wave that found its first violation.  With ``stop_at_first=False``
    it records every violation but never explores past a violating
    state.  Livelock cycles are reported after the search unless it
    already stopped at a violation: one lasso under ``stop_at_first``,
    else one per cyclic strongly connected component of the explored
    graph.  ``progress`` receives the running :class:`SearchStats` as a
    dict (``dataclasses.asdict``) at the end of each wave in which the transition count crosses a
    multiple of :data:`PROGRESS_EVERY`.

    ``por=True`` (the default) applies the sleep-set partial-order
    reduction of :mod:`repro.mc.por`: redundant interleavings of
    commuting agent actions are pruned *without* losing any reachable
    state, so verdicts, explored-state counts and terminal-state sets
    are identical to full expansion while the executed-transition count
    drops.  ``por=False`` restores plain full expansion.

    ``links`` injects a :class:`~repro.ring.faults.LinkSpec`: the state
    graph gains link-actor branches (delayed deliveries, phantom
    consumption) and the default safety suite switches to its
    fault-aware variants.  Sleep sets are unsound under the shared
    fault-draw stream (see :mod:`repro.mc.por`), so an active spec
    forces full expansion regardless of ``por``.

    ``store_root`` spills every wave to ``<store_root>/mc/<check-hash>/``
    and ``resume=True`` continues a previously killed run (a completed
    run's stored result is returned directly).

    ``jobs`` (at least 1) governs only placement fan-out
    (:func:`check_placements`): one search always runs in this process,
    so every ``jobs`` returns the same result, and a ``factory`` is
    accepted at any value.
    """
    if jobs < 1:
        raise ValueError(f"check_frontier needs jobs >= 1, got {jobs}")
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

    root = oracle.fork_root()
    root_snapshot = root.snapshot()
    root_key = root_snapshot.canonical_key()
    if resumed is not None:
        wave = resumed.wave
        visited = resumed.visited
        stats = resumed.stats
        violation_records = list(resumed.violations)
        terminal_keys = list(resumed.terminal_keys)
        edges = resumed.edges
        if violation_records and stop_at_first:
            # The killed run had already found its violation; don't
            # explore further, just finalise the stored state.
            frontier = []
        else:
            frontier = [_restore(oracle, item) for item in resumed.frontier]
    else:
        wave = 0
        visited = {root_key: frozenset()}
        frontier = [
            FrontierItem(key=root_key, schedule=(), engine=root, snapshot=root_snapshot)
        ]
        stats = SearchStats(explored=1)
        violation_records = []
        terminal_keys = []
        edges = set()
        if spill is not None:
            spill.start_fresh()
            spill.append_wave(
                0, [(root_key, frozenset())], frontier, [], [], {}, stats
            )

    complete = not stats.truncated
    expander = _Expander(oracle, por)
    # The frontier is in (key, schedule) order: the merge below builds
    # it in that order, and it is journaled and resumed in it.  An
    # item's position is therefore also its journal index.
    while frontier:
        if max_states is not None and stats.explored >= max_states:
            complete = False
            break
        transitions_before = stats.transitions
        transitions, por_skipped, children, wave_violations = _expand_batch(
            frontier, expander
        )
        stats.transitions += transitions
        stats.por_skipped += por_skipped
        children.sort(key=lambda child: (child.item.key, child.item.schedule))

        wave_terminal_keys: List[str] = []
        wave_edges: Dict[bytes, List[bytes]] = {}
        visited_delta: List[Tuple[bytes, frozenset]] = []
        next_frontier: List[FrontierItem] = []
        hit_max_states = False
        for item, parent, quiescent, term in children:
            key = item.key
            schedule = item.schedule
            if len(schedule) > stats.max_depth:
                stats.max_depth = len(schedule)
            # A quiescent state is on no cycle: its edges are not kept.
            edge = (parent, key)
            if not quiescent and edge not in edges:
                edges.add(edge)
                wave_edges.setdefault(parent, []).append(key)
            stored = visited.get(key)
            if stored is not None:
                stats.deduped += 1
                reopened = revisit(stored, item.sleep)
                if reopened is None:
                    continue
                if depth_limit is not None and len(schedule) >= depth_limit:
                    stats.truncated += 1  # re-expanding would pass the limit
                    complete = False
                    continue
                reopen, merged = reopened
                visited[key] = merged
                visited_delta.append((key, merged))
                next_frontier.append(
                    replace(item, sleep=merged, restrict=tuple(sorted(reopen)))
                )
                continue
            visited[key] = item.sleep
            visited_delta.append((key, item.sleep))
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
            next_frontier.append(item)

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
                wave_edges,
                stats,
            )
        frontier = next_frontier
        if (
            progress is not None
            and stats.transitions // PROGRESS_EVERY
            > transitions_before // PROGRESS_EVERY
        ):
            progress(asdict(stats))
        if hit_max_states:
            complete = False
            break
        if wave_violations and stop_at_first:
            break

    violations = [
        Counterexample.of(
            oracle, Violation(entry["kind"], entry["name"], entry["msg"]), entry["sch"]
        )
        for entry in violation_records
    ]
    # Without a memo hit every recorded edge found a new state: the
    # explored graph is then a tree, with no cycle to look for.
    if stats.deduped and not (violations and stop_at_first):
        successors: Dict[bytes, List[bytes]] = {}
        for source, target in sorted(edges):
            successors.setdefault(source, []).append(target)
        for keys in _livelock_lassos(successors, root_key, first_only=stop_at_first):
            schedule = _lasso_schedule(oracle, keys)
            cycle = Violation("cycle", "livelock-cycle", _cycle_message(len(schedule)))
            violations.append(Counterexample.of(oracle, cycle, schedule))
    result = MCResult.from_search(
        oracle, stats, visited, violations, terminal_keys,
        complete=complete, stop_at_first=stop_at_first,
    )
    if spill is not None:
        spill.finish(result.to_dict())
    return result
