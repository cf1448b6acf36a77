"""Append-only JSONL shard store for :class:`~repro.store.records.RunRecord`.

Layout: a directory of ``shard-<pid>.jsonl`` files, one JSON record per
line.  Every writer process appends **only to its own shard** (named by
its pid), each record is written with a single ``O_APPEND`` ``write``
call, and shards are never rewritten — three properties that together
make the store safe under the multiprocessing sweep pool without any
cross-process locking:

* two processes never interleave bytes inside one file,
* a single append either lands whole or (if the writer is killed
  mid-call) leaves a torn *tail* that the next scan detects and skips —
  committed records are never damaged,
* readers can :meth:`RunStore.refresh` at any time and see exactly the
  records whose writes completed.

Lookups and queries never parse the whole archive: a secondary index
(:mod:`repro.store.index` — SQLite at ``<store>/index.sqlite`` by
default, the historical full in-memory scan with ``index="memory"``)
maps every committed shard line to its offset plus the small query
fields, so :meth:`RunStore.query` filters millions of records without
parsing them, :meth:`RunStore.get` reads exactly one line, and
reopening a store tails only the bytes appended since the index last
looked.  If the same hash appears on several lines the one with the
newest write stamp wins (that is what makes ``put(replace=True)``
durable across reopen, whichever shard the replacement landed in);
racing writers only ever duplicate identical payloads — runs are
deterministic functions of their spec — so for them the choice is
immaterial.

Every handle owns a *visibility frontier* — the per-shard byte offsets
it has caught up to.  :meth:`RunStore.refresh` advances it; between
refreshes a handle's view is stable no matter what other writers
append, and :meth:`RunStore.snapshot` freezes the current view into a
read-only :class:`StoreSnapshot` whose answers can never change (shards
are append-only, so the bytes below a frontier are immutable).  That is
what lets the experiment service serve concurrent queries while sweep
jobs write into the same archive.

Iteration and query order is sorted content-hash order — stable across
shard layouts and refreshes.  (Before the secondary index landed it was
shard-scan order, which depended on which pid wrote which record.)
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Union

from repro.decode import canonical_json
from repro.errors import ConfigurationError
from repro.store.index import LineEntry, MemoryLineIndex, SqliteLineIndex
from repro.store.records import RunRecord

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.store.campaigns import CampaignLedger, QuarantineArchive
    from repro.store.failures import FailureArchive

__all__ = ["RunStore", "StoreSnapshot"]

#: Process-wide locks, one per shard file: several RunStore handles in
#: one process share the pid shard, so the fstat-offset/append/index
#: sequence in put() must serialise across handles, not just within one.
_SHARD_LOCKS: Dict[str, threading.Lock] = {}
_SHARD_LOCKS_GUARD = threading.Lock()


def _shard_lock(path: Path) -> threading.Lock:
    key = os.path.realpath(path)
    with _SHARD_LOCKS_GUARD:
        return _SHARD_LOCKS.setdefault(key, threading.Lock())


class _StoreView:
    """Read operations over (root, line index, visibility frontier).

    Base of both :class:`RunStore` (whose frontier advances on
    ``refresh``/``put``) and :class:`StoreSnapshot` (whose frontier is
    frozen).  Subclasses set ``root``, ``_index`` and ``_frontier``.
    """

    root: Path
    _frontier: Mapping[str, int]

    # -- loading -------------------------------------------------------------

    def _load(self, entry: LineEntry) -> RunRecord:
        path = self.root / entry.shard
        with path.open("rb") as handle:
            handle.seek(entry.offset)
            raw = handle.read(entry.length)
        return RunRecord.from_dict(json.loads(raw))

    def _load_many(self, entries: List[LineEntry]) -> List[RunRecord]:
        """Load records with one file open per shard, not per record.

        Bulk readers (:meth:`iter_records`, :meth:`query`) would
        otherwise pay an open/seek/close cycle for every record; here
        each shard is opened once and its matches are read in offset
        order.  The returned list preserves the order of ``entries``.
        """
        raw: Dict[int, bytes] = {}
        by_shard: Dict[str, List[LineEntry]] = {}
        for entry in entries:
            by_shard.setdefault(entry.shard, []).append(entry)
        for shard, group in by_shard.items():
            with (self.root / shard).open("rb") as handle:
                for entry in sorted(group, key=lambda e: e.offset):
                    handle.seek(entry.offset)
                    raw[id(entry)] = handle.read(entry.length)
        return [
            RunRecord.from_dict(json.loads(raw[id(entry)])) for entry in entries
        ]

    def _winner(self, content_hash: str) -> Optional[LineEntry]:
        return self._index.winner(content_hash, self._frontier)

    # -- lookups -------------------------------------------------------------

    def get(self, content_hash: str) -> RunRecord:
        """The archived record for ``content_hash`` (KeyError when absent)."""
        entry = self._winner(content_hash)
        if entry is None:
            raise KeyError(content_hash)
        return self._load(entry)

    def get_many(self, content_hashes: List[str]) -> List[RunRecord]:
        """The records for ``content_hashes``, in the given order.

        Bulk counterpart of :meth:`get` for hot resume paths: shards
        are opened once each instead of once per record.  Raises
        ``KeyError`` on the first absent hash.
        """
        entries = []
        for content_hash in content_hashes:
            entry = self._winner(content_hash)
            if entry is None:
                raise KeyError(content_hash)
            entries.append(entry)
        return self._load_many(entries)

    def contains(self, content_hash: str) -> bool:
        return self._winner(content_hash) is not None

    __contains__ = contains

    def resolve_prefix(self, prefix: str) -> List[str]:
        """All stored hashes starting with ``prefix``, sorted.

        The abbreviated-hash helper behind ``repro query --hash``: a
        prefix can legitimately match several records, and callers that
        need exactly one (or want to report ambiguity clearly) resolve
        it here first instead of picking an arbitrary match.
        """
        return self._index.resolve_prefix(prefix, self._frontier)

    def __len__(self) -> int:
        return self._index.count(self._frontier)

    def hashes(self) -> List[str]:
        """All stored content hashes, sorted."""
        return self._index.hashes(self._frontier)

    def iter_records(self) -> Iterator[RunRecord]:
        """Every stored record, in content-hash order."""
        yield from self.query()

    def query(
        self,
        *,
        algorithm: Optional[str] = None,
        scheduler: Optional[str] = None,
        ring_size: Optional[int] = None,
        agent_count: Optional[int] = None,
        uniform: Optional[bool] = None,
        hash_prefix: Optional[str] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> Iterator[RunRecord]:
        """Records matching every given filter, in content-hash order.

        Filtering runs on the secondary index; only matching records
        are parsed from disk.  ``scheduler`` matches the producing
        spec's canonical scheduler spec string (falling back to the
        scheduler description for specless records); ``hash_prefix``
        matches the start of the content hash, so ``repro query --hash
        ab12`` works like git's abbreviated object names.  ``limit``
        and ``offset`` paginate the matches — the hash order is stable,
        so consecutive pages never skip or repeat a record as long as
        the view doesn't move (use :meth:`RunStore.snapshot` when
        writers are live).
        """
        matched = self._index.winners(
            self._frontier,
            algorithm=algorithm,
            scheduler=scheduler,
            ring_size=ring_size,
            agent_count=agent_count,
            uniform=uniform,
            hash_prefix=hash_prefix,
            limit=limit,
            offset=offset,
        )
        # Stream in chunks: hash order is preserved, memory stays
        # bounded by the chunk, and chunks still amortise file opens.
        chunk = 1024
        for begin in range(0, len(matched), chunk):
            yield from self._load_many(matched[begin:begin + chunk])

    def count(
        self,
        *,
        algorithm: Optional[str] = None,
        scheduler: Optional[str] = None,
        ring_size: Optional[int] = None,
        agent_count: Optional[int] = None,
        uniform: Optional[bool] = None,
        hash_prefix: Optional[str] = None,
    ) -> int:
        """How many records :meth:`query` would match (no disk reads).

        Counting is pushed into the index backend: for SQLite it is a
        ``SELECT COUNT(*)`` over the view's winners table, so no entry
        list is built and no record bytes are read, and repeated counts
        of an unchanged view never re-resolve winners.
        """
        if all(
            value is None
            for value in (
                algorithm, scheduler, ring_size, agent_count, uniform,
                hash_prefix,
            )
        ):
            return self._index.count(self._frontier)
        return self._index.count_winners(
            self._frontier,
            algorithm=algorithm,
            scheduler=scheduler,
            ring_size=ring_size,
            agent_count=agent_count,
            uniform=uniform,
            hash_prefix=hash_prefix,
        )

    def digest(self) -> str:
        """A stable SHA-256 over the store's *logical* record contents.

        Hashes every record's canonical ``to_dict()`` JSON (which
        excludes the ``_ts`` write-stamp envelope), sorted by content
        hash — so two stores hold the same digest exactly when they
        archived the same set of records, regardless of shard pid
        names, write order, duplicate appends or wall-clock stamps.
        This is the equality the chaos harness asserts — a
        fault-disturbed campaign's store must digest identically to an
        undisturbed serial run's — and the experiment service's
        HTTP-vs-CLI identity gate: a sweep submitted over HTTP must
        digest identically to the same sweep via ``repro psweep``.
        """
        hasher = hashlib.sha256()
        entries = self._index.winners(self._frontier)
        chunk = 1024
        for begin in range(0, len(entries), chunk):
            for record in self._load_many(entries[begin:begin + chunk]):
                hasher.update(canonical_json(record.to_dict()).encode("utf-8"))
                hasher.update(b"\n")
        return hasher.hexdigest()

    # -- satellite archives --------------------------------------------------

    @property
    def failures(self) -> "FailureArchive":
        """The store's failure-artifact archive (``<root>/failures/``).

        Fuzzer-found violations live here as one JSON artifact per
        triggering-spec content hash; see
        :class:`repro.store.failures.FailureArchive`.
        """
        from repro.store.failures import FailureArchive

        return FailureArchive(self.root / "failures")

    @property
    def quarantine(self) -> "QuarantineArchive":
        """The store's quarantined-unit archive (``<root>/quarantine/``).

        Campaign work units that exhausted their retry budget land here
        as poison artifacts; see
        :class:`repro.store.campaigns.QuarantineArchive`.
        """
        from repro.store.campaigns import QuarantineArchive

        return QuarantineArchive(self.root / "quarantine")

    def campaign_ledger(self, work_hash: str) -> "CampaignLedger":
        """The lease-event journal of one campaign (``<root>/campaign/``)."""
        from repro.store.campaigns import CampaignLedger

        return CampaignLedger(self.root / "campaign", work_hash)


class StoreSnapshot(_StoreView):
    """A read-only, frozen view of a :class:`RunStore`.

    Pins the store's visibility frontier at creation time: because
    shards are append-only and the frontier only ever covers committed
    whole lines, every answer a snapshot gives is stable no matter how
    many ``put()``s land concurrently — no locks held, no bytes copied.
    The snapshot shares its parent handle's index, so it stays valid
    for the parent's lifetime.
    """

    def __init__(self, store: "RunStore") -> None:
        self.root = store.root
        self._store = store
        self._generation = store.generation
        # Read-only, which also lets the SQLite index answer one view's
        # consecutive questions from one data_version read.
        self._frontier = MappingProxyType(dict(store._frontier))

    @property
    def _index(self):
        # Fail loudly, never serve torn answers: compact() relocates
        # line bytes, so a pre-compaction frontier's offsets are
        # meaningless afterwards.  Every read path consults the index
        # first, so gating it here invalidates the whole snapshot.
        if self._store.generation != self._generation:
            raise ConfigurationError(
                f"snapshot of {self.root} was invalidated by compact(); "
                f"take a new snapshot"
            )
        return self._store._index

    def describe(self) -> str:
        return (
            f"StoreSnapshot({self.root}): {len(self)} records "
            f"in {len(self._frontier)} shard(s)"
        )


class RunStore(_StoreView):
    """A content-addressed, append-only archive of experiment runs.

    ``RunStore(directory)`` opens (creating if needed) a store rooted at
    ``directory``.  The API is deliberately small:

    * :meth:`put` — archive a record (no-op on duplicate hashes),
    * :meth:`get` / :meth:`contains` / ``hash in store`` — lookup,
    * :meth:`query` — filtered, paginated iteration without full
      parsing,
    * :meth:`iter_records` — everything, in content-hash order,
    * :meth:`refresh` — pick up records other processes appended since
      the last scan,
    * :meth:`snapshot` — a frozen read-only view for concurrent
      queries.

    ``index`` selects the secondary-index backend: ``"sqlite"`` (the
    default) persists ``<store>/index.sqlite`` so reopening is O(new
    bytes); ``"memory"`` is the historical per-handle full scan, kept
    as the differential oracle (:meth:`verify_index`) and benchmark
    baseline.  Both are derived data — deleting ``index.sqlite`` never
    loses a record.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        create: bool = True,
        index: str = "sqlite",
    ) -> None:
        self.root = Path(root)
        if not self.root.exists():
            if not create:
                raise ConfigurationError(f"run store {self.root} does not exist")
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise ConfigurationError(
                f"run store path {self.root} is not a directory"
            )
        if index == "sqlite":
            self._index = SqliteLineIndex(self.root)
        elif index == "memory":
            self._index = MemoryLineIndex()
        else:
            raise ConfigurationError(
                f"unknown store index backend {index!r} "
                f"(expected 'sqlite' or 'memory')"
            )
        self.index_mode = index
        #: Bumped by :meth:`compact`; snapshots pin the value they were
        #: taken at and refuse to answer once it moves.
        self.generation = 0
        self._lock = threading.Lock()
        # Catch up without refresh()'s counts: opening a store resolves
        # no winners.
        self._index.tail(self.root)
        self._frontier: Dict[str, int] = self._index.frontier()

    # -- scanning ------------------------------------------------------------

    def refresh(self) -> int:
        """Catch up with other writers; return how many records appeared.

        Tails only the shard bytes appended since the index last
        looked (O(new bytes), not O(store)) and advances this handle's
        visibility frontier over them.  On the SQLite index, a store
        whose shard files, index rows and last lines are unchanged is
        recognised without a query or a JSON parse (see
        :class:`~repro.store.index.SqliteLineIndex`).  Both counts are
        taken on the index as the tail left it, so a frontier that did
        not move answers 0 without resolving any winners.
        """
        with self._lock:
            old = self._frontier
            self._index.tail(self.root)
            self._frontier = self._index.frontier()
            if self._frontier == old:
                return 0
            before = self._index.count(old)
            return self._index.count(self._frontier) - before

    def snapshot(self) -> StoreSnapshot:
        """Freeze the current view into a read-only :class:`StoreSnapshot`."""
        return StoreSnapshot(self)

    def verify_index(self) -> int:
        """Differentially validate the index against a full JSONL scan.

        Re-derives an independent in-memory index from the shard bytes
        and checks that both agree on the set of visible hashes and on
        the winning line of every hash (equal-stamp winners may differ
        in location when racing writers duplicated a record — then the
        payloads themselves must be identical).  Returns the number of
        hashes checked; raises :class:`ConfigurationError` on the first
        disagreement.
        """
        oracle = MemoryLineIndex()
        oracle.tail(self.root)
        with self._lock:
            self._index.tail(self.root)
        mine = {e.content_hash: e for e in self._index.winners(None)}
        theirs = {e.content_hash: e for e in oracle.winners(None)}
        if set(mine) != set(theirs):
            missing = set(theirs) - set(mine)
            extra = set(mine) - set(theirs)
            raise ConfigurationError(
                f"store index disagrees with JSONL scan: "
                f"{len(missing)} hash(es) missing from the index, "
                f"{len(extra)} extra"
            )
        for content_hash, entry in mine.items():
            other = theirs[content_hash]
            if entry.stamp != other.stamp:
                raise ConfigurationError(
                    f"store index winner for {content_hash[:12]} has stamp "
                    f"{entry.stamp}, JSONL scan says {other.stamp}"
                )
            if (entry.shard, entry.offset) != (other.shard, other.offset):
                if self._load(entry).to_dict() != self._load(other).to_dict():
                    raise ConfigurationError(
                        f"store index winner for {content_hash[:12]} at "
                        f"{entry.shard}:{entry.offset} differs from JSONL "
                        f"scan winner at {other.shard}:{other.offset}"
                    )
        return len(mine)

    def rebuild_index(self) -> int:
        """Drop the derived index and re-derive it from the shard files."""
        with self._lock:
            self._index.rebuild(self.root)
            self._frontier = self._index.frontier()
            return self._index.count(self._frontier)

    def compact(self) -> int:
        """Rewrite every shard in place, keeping only winning lines.

        ``put(replace=True)`` leaves the superseded line on disk, racing
        writers duplicate identical payloads, and fenced-off torn tails
        linger as garbage bytes — an archive under churn only ever
        grows.  Compaction drops all of that: each shard is rewritten
        (atomic tmp + fsync + rename) to hold exactly the bytes of its
        winning lines, a shard left with no winners is deleted, and the
        secondary index is rebuilt from the rewritten files.  The
        surviving lines are byte-identical to the winners they were, so
        :meth:`digest` is unchanged by construction.  Returns the number
        of shard bytes reclaimed.

        This is a maintenance operation for a quiescent store: it holds
        this process's shard locks throughout but cannot stop *other
        processes* from appending mid-rewrite — run it when no writers
        are live.  Snapshots taken before a compaction fail loudly
        afterwards instead of serving records from relocated offsets.
        """
        with self._lock:
            self._index.tail(self.root)
            by_shard: Dict[str, List[LineEntry]] = {}
            for entry in self._index.winners(None):
                by_shard.setdefault(entry.shard, []).append(entry)
            reclaimed = 0
            for path in sorted(self.root.glob("shard-*.jsonl")):
                with _shard_lock(path):
                    size = path.stat().st_size
                    keep = sorted(
                        by_shard.get(path.name, ()), key=lambda e: e.offset
                    )
                    lines: List[bytes] = []
                    with path.open("rb") as handle:
                        for entry in keep:
                            handle.seek(entry.offset)
                            raw = handle.read(entry.length)
                            # The index said these bytes are a committed
                            # record; verify before destroying anything.
                            try:
                                payload = json.loads(raw)
                            except ValueError:
                                payload = None
                            if (
                                not isinstance(payload, dict)
                                or payload.get("content_hash")
                                != entry.content_hash
                            ):
                                raise ConfigurationError(
                                    f"compact aborted: {path.name} bytes at "
                                    f"{entry.offset} do not round-trip to "
                                    f"record {entry.content_hash[:12]} "
                                    f"(index stale or shard rewritten?); "
                                    f"no shard was modified beyond this point"
                                )
                            lines.append(raw)
                    if not lines:
                        os.unlink(path)
                        reclaimed += size
                        continue
                    rewritten = b"".join(line + b"\n" for line in lines)
                    reclaimed += size - len(rewritten)
                    tmp = path.with_name(path.name + ".tmp")
                    fd = os.open(
                        tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644
                    )
                    try:
                        os.write(fd, rewritten)
                        os.fsync(fd)
                    finally:
                        os.close(fd)
                    os.replace(tmp, path)
            self._index.rebuild(self.root)
            self._frontier = self._index.frontier()
            self.generation += 1
            return reclaimed

    def close(self) -> None:
        """Release the index backend (open snapshots become invalid)."""
        self._index.close()

    # -- writing -------------------------------------------------------------

    def _own_shard(self) -> Path:
        return self.root / f"shard-{os.getpid()}.jsonl"

    def put(self, record: RunRecord, *, replace: bool = False) -> bool:
        """Archive ``record``; return False when the hash is already stored.

        The write is one ``O_APPEND`` call to this process's own shard,
        so concurrent writers (other pids, other shards) can never
        interleave with it.  ``replace=True`` appends anyway and the
        newer copy wins lookups (the old line stays on disk — the store
        is append-only).  The secondary index is updated in the same
        shard-locked section, transactionally for the SQLite backend.
        """
        if not isinstance(record, RunRecord):
            raise ConfigurationError(
                f"put() expects a RunRecord, got {type(record).__name__}"
            )
        path = self._own_shard()
        shard = path.name
        with self._lock, _shard_lock(path):
            if path.exists():
                # Index anything appended to our shard since the last
                # scan (e.g. by another same-pid RunStore handle, or a
                # dead predecessor that reused this pid) before deciding
                # about duplicates — never silently skip committed bytes.
                self._index.tail(self.root, only=shard)
                frontier = dict(self._frontier)
                frontier[shard] = max(
                    frontier.get(shard, 0),
                    self._index.frontier().get(shard, 0),
                )
                self._frontier = frontier
            if not replace and self._winner(record.content_hash) is not None:
                return False
            payload = record.to_dict()
            # Envelope-only write stamp: orders duplicate hashes across
            # shards at lookup time.  RunRecord.from_dict ignores it, so
            # loaded records compare equal to the ones that were put.
            # A replacement must outrank whatever it replaces even if
            # the wall clock stepped backwards (NTP, skewed peers), so
            # never stamp at or below the record being superseded —
            # checked against the *global* winner, not just this
            # handle's view, so replacements survive reopen.
            existing = self._index.winner(record.content_hash, None)
            stamp = time.time_ns()
            if existing is not None and stamp <= existing.stamp:
                stamp = existing.stamp + 1
            payload["_ts"] = stamp
            encoded = canonical_json(payload).encode("utf-8") + b"\n"
            gap_start = self._index.frontier().get(shard, 0)
            fd = os.open(
                path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
            try:
                offset = os.fstat(fd).st_size
                if offset > gap_start:
                    # Unscanned bytes remain: a torn tail the tail scan
                    # above stopped at, or an append that raced in
                    # since.  Start our record on a fresh line either
                    # way.
                    os.write(fd, b"\n")
                    offset += 1
                os.write(fd, encoded)
            finally:
                os.close(fd)
            # Only advance the *index* frontier when our line is
            # contiguous with it; over a gap, leave it behind so the
            # next tail re-walks the gap — it is newline-terminated
            # now, so valid records in it get indexed and garbage is
            # counted and skipped; re-indexing our own line is
            # idempotent (unique shard+offset).
            end = offset + len(encoded)
            advance = end if offset == gap_start else None
            self._index.add_line(
                shard, offset, len(encoded) - 1, payload, advance_to=advance
            )
            frontier = dict(self._frontier)
            frontier[shard] = max(frontier.get(shard, 0), end)
            self._frontier = frontier
            return True

    def describe(self) -> str:
        return (
            f"RunStore({self.root}): {len(self)} records "
            f"in {len(self._frontier)} shard(s)"
        )
