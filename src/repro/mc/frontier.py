"""Disk-spilled, resumable model-checker frontier.

A long exhaustive check is a computation worth protecting: hours of
exploration die with the process on the first OOM kill or pre-emption.
This module spills the model checker's open frontier, visited-key memo
and successor edges to ``<store>/mc/<check-hash>/``, keyed — like the
RunStore — by a content hash of the *check spec* (algorithm, placement,
POR mode, limits, terminal requirements, packed-encoding and journal
versions), so a
killed ``repro mc --store ... --resume`` continues from the last
committed wave and finishes with the same verdict and cumulative stats
as an uninterrupted run (pinned by the kill-resume test).

Layout
------

``meta.json``
    The check spec and its hash, written once at fresh start.
``journal.jsonl``
    Append-only wave journal.  Each wave appends a *block*: visited-memo
    deltas (``{"t":"v"}``), terminal-state keys (``{"t":"tk"}``),
    violations (``{"t":"x"}``), the wave's new successor edges, one
    record per source state (``{"t":"e"}``), the entire next frontier
    (``{"t":"i"}``) and finally one commit marker (``{"t":"c"}``)
    carrying the wave number and cumulative
    :class:`~repro.mc.state.SearchStats`.  The file is flushed and
    fsynced once per wave, after the commit marker.  Frontier items are
    journaled as schedules: a resumed check rebuilds each reloaded
    item's engine once from its schedule.
``result.json``
    The finished :meth:`~repro.mc.checker.MCResult.to_dict`, written
    atomically (tmp + rename) when the check completes; a resume of a
    completed check short-circuits to it.

Torn-tail safety mirrors :mod:`repro.store.jsonl`: replay buffers lines
and applies a block only when its commit marker parses — a SIGKILL
mid-block (or mid-line) loses at most the uncommitted wave, never the
journal's integrity.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.mc.state import SearchStats
from repro.ring.configuration import PACKED_ENCODING_VERSION, Configuration
from repro.ring.placement import Placement
from repro.sim.engine import Engine

__all__ = [
    "FrontierItem",
    "FrontierSpill",
    "ResumeState",
    "check_spec",
    "check_hash",
]

#: Version of the ``journal.jsonl`` record set, part of every check
#: spec.  Version 2 added the successor-edge records (``{"t":"e"}``): a
#: spill written before them hashes differently and is never resumed as
#: if its edge set were complete.
JOURNAL_VERSION = 2


@dataclass
class FrontierItem:
    """One open state awaiting expansion.

    ``key`` is the packed canonical key, ``schedule`` the activation
    prefix that reached the state, ``sleep`` the canonical sleep slots
    the state is to be expanded under, and ``restrict`` — when not
    ``None`` — the exact slots to (re-)expand: the sleep-set revisit
    rule re-opens only the transitions a previous visit slept through.

    ``engine`` is a live engine at the state, ``snapshot`` the snapshot
    already taken of it and ``slept`` the concrete agent ids behind
    ``sleep``; expansion steps forks of ``engine`` and never replays
    ``schedule``.  They travel with the item, pickled to and from pool
    workers, but are not journaled: only the first four fields are.
    """

    key: bytes
    schedule: Tuple[int, ...]
    sleep: frozenset = frozenset()
    restrict: Optional[Tuple[int, ...]] = None
    engine: Optional[Engine] = field(default=None, compare=False, repr=False)
    snapshot: Optional[Configuration] = field(default=None, compare=False, repr=False)
    slept: frozenset = field(default=frozenset(), compare=False)

    def to_json(self) -> dict:
        return {
            "t": "i",
            "k": self.key.hex(),
            "sch": list(self.schedule),
            "s": sorted(self.sleep),
            "r": None if self.restrict is None else list(self.restrict),
        }

    @classmethod
    def from_json(cls, record: dict) -> "FrontierItem":
        return cls(
            key=bytes.fromhex(record["k"]),
            schedule=tuple(record["sch"]),
            sleep=frozenset(record["s"]),
            restrict=None if record["r"] is None else tuple(record["r"]),
        )


@dataclass
class ResumeState:
    """Everything the frontier driver needs to continue a killed check."""

    wave: int
    visited: Dict[bytes, frozenset]
    frontier: List[FrontierItem]
    stats: SearchStats
    violations: List[dict] = field(default_factory=list)
    terminal_keys: List[str] = field(default_factory=list)
    edges: Set[Tuple[bytes, bytes]] = field(default_factory=set)


def check_spec(
    algorithm: str,
    placement: Placement,
    *,
    por: bool,
    depth_limit: Optional[int],
    max_states: Optional[int],
    stop_at_first: bool,
    safety_props: tuple,
    terminal_props: tuple,
    links: "Optional[object]" = None,
) -> dict:
    """The canonical, JSON-stable description of one check.

    Everything that changes the *meaning* of the exploration is in here
    (including the packed-encoding and journal versions — a format bump
    must never resume an old spill); runtime knobs like ``jobs`` are not, so a
    check can resume under a different worker count.  ``links`` (a
    :class:`~repro.ring.faults.LinkSpec`, serialised) is emitted only
    when active, so every reliable check keeps its historical hash.
    """

    def props(sequence: tuple) -> list:
        described = []
        for prop in sequence:
            params = {
                name: value
                for name, value in sorted(vars(prop).items())
                if isinstance(value, (bool, int, float, str, type(None)))
            }
            described.append([prop.name, params])
        return described

    spec = {
        "encoding": PACKED_ENCODING_VERSION,
        "journal": JOURNAL_VERSION,
        "algorithm": algorithm,
        "ring_size": placement.ring_size,
        "homes": list(placement.homes),
        "por": por,
        "depth_limit": depth_limit,
        "max_states": max_states,
        "stop_at_first": stop_at_first,
        "safety": props(safety_props),
        "terminal": props(terminal_props),
    }
    if links is not None and getattr(links, "active", False):
        spec["links"] = links.to_dict()
    return spec


def check_hash(spec: dict) -> str:
    """SHA-256 of the canonical JSON form of ``spec``."""
    payload = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _stats_to_json(stats: SearchStats) -> dict:
    return {
        "explored": stats.explored,
        "transitions": stats.transitions,
        "deduped": stats.deduped,
        "terminals": stats.terminals,
        "max_depth": stats.max_depth,
        "truncated": stats.truncated,
        "por_skipped": stats.por_skipped,
    }


def _stats_from_json(record: dict) -> SearchStats:
    return SearchStats(
        explored=record["explored"],
        transitions=record["transitions"],
        deduped=record["deduped"],
        terminals=record["terminals"],
        max_depth=record["max_depth"],
        truncated=record["truncated"],
        por_skipped=record["por_skipped"],
    )


class FrontierSpill:
    """Journal-backed persistence for one check's frontier and memo."""

    def __init__(self, store_root: str, spec: dict) -> None:
        self.spec = spec
        self.hash = check_hash(spec)
        self.directory = Path(store_root) / "mc" / self.hash
        self._journal = None

    # -- lifecycle -----------------------------------------------------

    def load_result(self) -> Optional[dict]:
        """The finished result dict, if this check already completed."""
        path = self.directory / "result.json"
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None

    def resume_state(self) -> Optional[ResumeState]:
        """Replay the journal up to its last committed wave.

        Returns ``None`` when there is nothing committed to resume from
        (missing or fully torn journal) — the caller then starts fresh.
        Uncommitted trailing lines (a wave interrupted mid-append) are
        discarded.
        """
        path = self.directory / "journal.jsonl"
        if not path.exists():
            return None
        state: Optional[ResumeState] = None
        visited: Dict[bytes, frozenset] = {}
        violations: List[dict] = []
        terminal_keys: List[str] = []
        edges: Set[Tuple[bytes, bytes]] = set()
        block_visited: List[Tuple[bytes, frozenset]] = []
        block_items: List[FrontierItem] = []
        block_violations: List[dict] = []
        block_terminal: List[str] = []
        block_edges: List[dict] = []
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                if not line.endswith("\n"):
                    break  # torn tail: mid-line kill
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break
                kind = record.get("t")
                if kind == "v":
                    block_visited.append(
                        (bytes.fromhex(record["k"]), frozenset(record["s"]))
                    )
                elif kind == "i":
                    block_items.append(FrontierItem.from_json(record))
                elif kind == "x":
                    block_violations.append(record)
                elif kind == "tk":
                    block_terminal.append(record["k"])
                elif kind == "e":
                    block_edges.append(record)
                elif kind == "c":
                    for key, slots in block_visited:
                        visited[key] = slots
                    for entry in block_edges:
                        source = bytes.fromhex(entry["k"])
                        edges.update((source, bytes.fromhex(dst)) for dst in entry["d"])
                    violations.extend(block_violations)
                    terminal_keys.extend(block_terminal)
                    state = ResumeState(
                        wave=record["w"],
                        visited=visited,
                        frontier=list(block_items),
                        stats=_stats_from_json(record["stats"]),
                        violations=violations,
                        terminal_keys=terminal_keys,
                        edges=edges,
                    )
                    block_visited = []
                    block_items = []
                    block_violations = []
                    block_terminal = []
                    block_edges = []
        return state

    def start_fresh(self) -> None:
        """Wipe any previous spill for this spec and write ``meta.json``."""
        if self.directory.exists():
            shutil.rmtree(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        meta = {"version": 1, "hash": self.hash, "spec": self.spec}
        (self.directory / "meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    def _handle(self):
        if self._journal is None:
            self._journal = (self.directory / "journal.jsonl").open(
                "a", encoding="utf-8"
            )
        return self._journal

    # -- per-wave append ----------------------------------------------

    def append_wave(
        self,
        wave: int,
        visited_delta: List[Tuple[bytes, frozenset]],
        frontier: List[FrontierItem],
        violations: List[dict],
        terminal_keys: List[str],
        edges: Dict[bytes, List[bytes]],
        stats: SearchStats,
    ) -> None:
        """Append one wave block and fsync it behind a commit marker.

        ``edges`` maps each source state to the successors first
        recorded for it in this wave.
        """
        handle = self._handle()
        lines: List[str] = []
        for key, slots in visited_delta:
            lines.append(
                json.dumps(
                    {"t": "v", "k": key.hex(), "s": sorted(slots)},
                    separators=(",", ":"),
                )
            )
        for key_hex in terminal_keys:
            lines.append(json.dumps({"t": "tk", "k": key_hex}, separators=(",", ":")))
        for violation in violations:
            lines.append(json.dumps(violation, separators=(",", ":")))
        for source, targets in edges.items():
            lines.append(
                json.dumps(
                    {"t": "e", "k": source.hex(), "d": [key.hex() for key in targets]},
                    separators=(",", ":"),
                )
            )
        for item in frontier:
            lines.append(json.dumps(item.to_json(), separators=(",", ":")))
        lines.append(
            json.dumps(
                {"t": "c", "w": wave, "stats": _stats_to_json(stats)},
                separators=(",", ":"),
            )
        )
        handle.write("\n".join(lines) + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    def finish(self, result: dict) -> None:
        """Atomically record the completed result and close the journal."""
        tmp = self.directory / "result.json.tmp"
        tmp.write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(tmp, self.directory / "result.json")
        self.close()

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None
