"""Coverage signals: which executions taught the fuzzer something new.

Two complementary feature maps, both observed after every executed
atomic action:

* **canonical state coverage** — the rotation- and relabelling-
  invariant :meth:`~repro.ring.configuration.Configuration.canonical_key`
  of the global state, the same key the exhaustive checker memoises on
  (its first 8 bytes, as an int).  A run that reaches a canonical state
  no previous run reached has, by definition, explored schedule-space
  the campaign had never seen.
* **enabled-pattern coverage** — a coarse abstraction of the
  *scheduling surface*: the sorted multiset of per-agent statuses
  (active / queued / queue-head / suspended / woken / halted) plus the
  enabled count.  Orders of magnitude fewer distinct values than
  canonical states, so it saturates early and then flags only
  structurally new scheduling situations (e.g. "two woken followers at
  once" — the wake-race shape).

Keys are 64-bit ints: the state key is a prefix of the blake2b state
digest, the pattern key a BLAKE2b digest of the pattern ``repr``.  Both
are stable across processes and interpreter runs (unlike builtin
``hash`` under ``PYTHONHASHSEED``), so parallel shards can merge their
maps and deterministic campaigns stay deterministic.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, Iterable, List, Set, Tuple

from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ring.configuration import Configuration

__all__ = ["CoverageMap", "enabled_pattern", "coverage_key"]


def coverage_key(feature: object) -> int:
    """A stable 64-bit key for one feature value (process-independent)."""
    digest = hashlib.blake2b(repr(feature).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def enabled_pattern(engine: Engine) -> Tuple[object, ...]:
    """The scheduling-surface abstraction of the current engine state.

    Per agent, one status letter — ``A`` active-staying, ``Q`` head of a
    link queue, ``q`` queued behind the head, ``S`` suspended (asleep),
    ``W`` suspended but woken (message pending, enabled), ``H`` halted —
    sorted so the pattern is agent-relabelling-invariant, plus the
    enabled count.

    On a faulty engine two more letters appear — ``B`` held in a link
    delay buffer, ``L`` lost in transit — and the pattern gains a third
    component: the number of currently enabled *link actors*.  Reliable
    engines keep the historical two-element shape, so fault-free
    campaigns produce exactly the pre-fault coverage keys.
    """
    enabled = set(engine.enabled_agents())
    statuses: List[str] = []
    ring = engine.ring
    faults = ring.faults
    for agent_id in engine.agent_ids:
        agent = engine.agent(agent_id)
        if faults is not None and agent_id in faults.lost:
            statuses.append("L")
            continue
        if agent.halted:
            statuses.append("H")
            continue
        kind, node = ring.locate(agent_id)
        if kind == "buffer":
            statuses.append("B")
        elif kind == "queue":
            statuses.append("Q" if ring.queue_head(node) == agent_id else "q")
        elif agent.suspended:
            statuses.append("W" if agent_id in enabled else "S")
        else:
            statuses.append("A")
    if faults is not None:
        actors = sum(1 for agent_id in enabled if agent_id < 0)
        return (tuple(sorted(statuses)), len(enabled), actors)
    return (tuple(sorted(statuses)), len(enabled))


class CoverageMap:
    """The campaign-global record of everything any run has reached."""

    def __init__(self) -> None:
        self._states: Set[int] = set()
        self._patterns: Set[int] = set()
        # Pattern -> coverage_key(pattern): a campaign meets few distinct
        # patterns, each thousands of times.
        self._pattern_keys: Dict[Tuple[object, ...], int] = {}

    # -- observation ---------------------------------------------------------

    def observe(self, engine: Engine, snapshot: "Configuration" = None) -> int:
        """Record the engine's current state; return the novelty gain.

        Gain counts how many of the two feature maps saw a new key
        (0, 1 or 2) — any positive gain marks the step as novel.
        Pass the ``snapshot`` the caller already built for its property
        checks to avoid rebuilding it (the fuzzer's hot loop does).
        """
        gain = 0
        if snapshot is None:
            snapshot = engine.snapshot()
        state_key = int.from_bytes(snapshot.canonical_key()[:8], "big")
        if state_key not in self._states:
            self._states.add(state_key)
            gain += 1
        pattern = enabled_pattern(engine)
        pattern_key = self._pattern_keys.get(pattern)
        if pattern_key is None:
            pattern_key = self._pattern_keys[pattern] = coverage_key(pattern)
        if pattern_key not in self._patterns:
            self._patterns.add(pattern_key)
            gain += 1
        return gain

    # -- accounting ----------------------------------------------------------

    @property
    def states(self) -> int:
        """Distinct canonical configurations reached so far."""
        return len(self._states)

    @property
    def patterns(self) -> int:
        """Distinct enabled-set patterns reached so far."""
        return len(self._patterns)

    def merge_keys(
        self, state_keys: Iterable[int], pattern_keys: Iterable[int]
    ) -> None:
        """Union another map's raw keys in (parallel-shard merging)."""
        self._states.update(state_keys)
        self._patterns.update(pattern_keys)

    def export_keys(self) -> Tuple[List[int], List[int]]:
        """The raw key sets, sorted (picklable, mergeable, deterministic)."""
        return sorted(self._states), sorted(self._patterns)

    def describe(self) -> str:
        return f"{self.states} canonical states, {self.patterns} enabled patterns"
