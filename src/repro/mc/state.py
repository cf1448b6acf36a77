"""Search-state bookkeeping for the interleaving model checker.

The checker explores the directed graph whose vertices are engine
states (quotiented by the ring-rotation / agent-relabelling symmetry of
:meth:`repro.ring.configuration.Configuration.canonical_key`) and whose
edges are single atomic actions of enabled agents.  This module holds
the small value objects that exploration threads through:

* :class:`PreState` — the lightweight pre-transition observation
  (token vector + queue contents) that edge-level safety properties
  compare against the post-transition engine,
* :class:`SearchStats` — the exploration counters reported to the user
  (explored / transitions / deduped / terminals / max depth),
* :class:`Frame` — one depth-first stack entry: a live engine, the
  schedule prefix that reached it and the untried enabled choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple, Union

from repro.sim.engine import Engine

__all__ = ["PreState", "SearchStats", "Frame", "capture_pre_state"]


@dataclass(frozen=True)
class PreState:
    """What edge properties need to know about the source state.

    Kept deliberately tiny — it is captured once per explored edge —
    and read-only: ``tokens`` is the node token vector, ``queues`` the
    per-node link queue contents (head first).
    """

    tokens: Tuple[int, ...]
    queues: Tuple[Tuple[int, ...], ...]


def capture_pre_state(engine: Engine) -> PreState:
    """Snapshot the transition-relevant passive state of ``engine``."""
    ring = engine.ring
    return PreState(
        tokens=ring.token_counts,
        queues=tuple(ring.queue_contents(node) for node in range(ring.size)),
    )


@dataclass
class SearchStats:
    """Mutable exploration counters, reported in :class:`MCResult`.

    * ``explored`` — distinct canonical states visited (root included),
    * ``transitions`` — atomic actions executed during the search,
    * ``deduped`` — transitions that landed on an already-visited
      canonical state (the memoisation hit count),
    * ``terminals`` — quiescent states reached (each checked once),
    * ``max_depth`` — longest schedule prefix explored,
    * ``truncated`` — states left unexpanded by ``depth_limit``,
    * ``por_skipped`` — enabled transitions pruned by the sleep-set
      partial-order reduction (redundant interleavings never executed),
    * ``memo_bytes`` — approximate visited-memo footprint: 16-byte
      blake2b keys plus the stored canonical sleep slots.
    """

    explored: int = 0
    transitions: int = 0
    deduped: int = 0
    terminals: int = 0
    max_depth: int = 0
    truncated: int = 0
    por_skipped: int = 0
    memo_bytes: int = 0

    def describe(self) -> str:
        return (
            f"{self.explored} states, {self.transitions} transitions, "
            f"{self.deduped} deduped, {self.por_skipped} por-skipped, "
            f"{self.terminals} terminal, max depth {self.max_depth}"
        )


@dataclass
class Frame:
    """One DFS stack level: a state plus its unexplored outgoing edges.

    ``engine`` is a live engine *at* this state.  It is consumed (moved
    into the child instead of forked) when the last untried choice is
    taken — the copy-on-branch optimisation that saves one fork per
    fully-expanded state.  ``key`` is the state's canonical key (packed
    blake2b digest, used to maintain the on-path set for cycle
    detection) and ``schedule`` the activation prefix that first reached
    it.  ``slept`` is the sleep set of the partial-order reduction:
    agents (by concrete id) whose transition from this state is already
    covered elsewhere — inherited sleepers plus the siblings whose
    subtrees completed before the current choice.
    """

    engine: Optional[Engine]
    key: Union[bytes, Tuple[object, ...]]
    schedule: Tuple[int, ...]
    choices: List[int] = field(default_factory=list)
    slept: Set[int] = field(default_factory=set)

    def take_engine(self) -> Engine:
        """Fork the frame's engine, or move it out on the last choice."""
        if self.engine is None:
            raise RuntimeError("frame engine already consumed")
        if self.choices:
            return self.engine.fork()
        engine = self.engine
        self.engine = None
        return engine
