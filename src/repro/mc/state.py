"""Search-state bookkeeping for the interleaving model checker.

The checker explores the directed graph whose vertices are engine
states (quotiented by the ring-rotation / agent-relabelling symmetry of
:meth:`repro.ring.configuration.Configuration.canonical_key`) and whose
edges are single atomic actions of enabled agents.  This module holds
:class:`SearchStats`, the exploration counters reported to the user
(explored / transitions / deduped / terminals / max depth).

Edge-level safety properties need no state of their own here: they
compare the snapshot of the source state, which every driver already
holds (the frontier item's snapshot, or the previous step's), with the
snapshot of the destination (see :mod:`repro.mc.properties`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SearchStats"]


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
