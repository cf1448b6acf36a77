"""Secondary indexes over the run store's JSONL shards.

The shards are the *only* source of truth — everything in this module
is a derived, rebuildable view of them.  Two interchangeable backends
index the shard bytes line by line:

* :class:`SqliteLineIndex` — a persistent SQLite database
  (``<store>/index.sqlite``) shared by every handle and every process
  on the store.  Opening a store becomes O(new bytes): the database
  remembers how far each shard has been consumed, so a reopen tails
  only appended bytes instead of re-parsing the whole archive.  A
  lookup of any number of content hashes is one indexed ``SELECT`` (per
  chunk of hashes, see :meth:`SqliteLineIndex.winners_of`) plus one
  read of each hit's line.
* :class:`MemoryLineIndex` — the historical per-handle in-memory scan.
  It exists as the *differential oracle*: it answers every index
  question from a full JSONL parse, so any disagreement with the
  SQLite backend is an index bug (``RunStore.verify_index`` and the
  property tests in ``tests/test_store_index.py`` pin the equality).

Both backends index **physical lines**, not logical records: a
``put(replace=True)`` appends a new line, and the winning line for a
content hash is the visible one with the greatest ``(stamp, ord)`` —
exactly the last-wins rule the in-memory scan has always applied.
Keeping every line makes the index append-only like the shards
themselves, which is what makes *snapshots* trivial: a snapshot is
nothing but a pinned per-shard byte frontier, and a line is visible to
it iff the line starts below the frontier.  Appends (including
replacements) land beyond every existing frontier, so a snapshot's
answers can never change.

That is also why the SQLite backend resolves winners once per frontier
rather than once per question: it materialises the frontier's winners
into a per-connection table and answers counts, filtered pages, hash
listings and prefix lookups from it until the frontier moves or the
index rows change (see :class:`SqliteLineIndex`).

Visibility frontiers are plain ``{shard_name: consumed_bytes}`` dicts;
``None`` means "everything indexed so far" (the global view used when
stamping replacements).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "INDEX_SCHEMA_VERSION",
    "LineEntry",
    "MemoryLineIndex",
    "SqliteLineIndex",
    "parse_shard_lines",
]

#: Version of the SQLite index schema; a mismatch triggers a rebuild
#: (the index is derived data — rebuilding is always safe).
#: v2: ``uniform`` became tri-state (NULL = record carries no report),
#: so reportless records stop masquerading as failed runs.
INDEX_SCHEMA_VERSION = 2

_SHARD_GLOB = "shard-*.jsonl"


@dataclass(frozen=True)
class LineEntry:
    """One indexed shard line: its location plus the cheap query fields."""

    shard: str  # shard file *name* (stable if the store directory moves)
    offset: int
    length: int  # line bytes, newline excluded
    content_hash: str
    algorithm: str
    scheduler: str
    ring_size: int
    agent_count: int
    uniform: Optional[bool]  # None = the record carries no report
    stamp: int  # wall-clock write stamp (envelope "_ts"), 0 if absent
    ord: int  # monotonic indexing order; breaks stamp ties (later wins)


def entry_from_payload(
    shard: str, offset: int, length: int, payload: Dict[str, object], ord_: int
) -> LineEntry:
    """Extract the index row of one parsed shard line."""
    if not isinstance(payload, dict) or "content_hash" not in payload:
        raise ConfigurationError(
            f"corrupt run store: {shard} record at byte {offset} "
            f"has no content_hash"
        )
    result = payload.get("result") or {}
    spec = payload.get("spec") or {}
    scheduler = (
        spec.get("scheduler", {}).get("spec")
        if isinstance(spec.get("scheduler"), dict)
        else None
    ) or str(result.get("scheduler", ""))
    # Tri-state: a record without a verification report has no verdict.
    # Coercing "no report" to False used to index such records as failed
    # runs and surface them under `query --failed` as false positives.
    report = result.get("report")
    uniform = None if not report else bool(report.get("ok", False))
    return LineEntry(
        shard=shard,
        offset=offset,
        length=length,
        content_hash=str(payload["content_hash"]),
        algorithm=str(result.get("algorithm", "")),
        scheduler=scheduler,
        ring_size=int(result.get("ring_size", 0)),
        agent_count=len(result.get("homes", ())),
        uniform=uniform,
        stamp=int(payload.get("_ts", 0)),
        ord=ord_,
    )


def parse_shard_lines(
    path: Path, start: int, size: int
) -> Tuple[List[Tuple[int, int, Dict[str, object]]], int, int, int]:
    """Parse ``path``'s bytes in ``[start, size)`` into JSON lines.

    Returns ``(lines, consumed, torn, corrupt)`` where each line is
    ``(offset, length, payload)``, ``consumed`` is the byte frontier
    after the last complete line, ``torn`` is 1 when the tail is an
    unterminated partial append, and ``corrupt`` counts
    newline-terminated garbage (a torn tail a later writer fenced off).
    """
    if size <= start:
        return [], start, 0, 0
    with path.open("rb") as handle:
        handle.seek(start)
        data = handle.read(size - start)
    lines: List[Tuple[int, int, Dict[str, object]]] = []
    torn = 0
    corrupt = 0
    pos = 0
    while pos < len(data):
        newline = data.find(b"\n", pos)
        if newline == -1:
            # Torn tail: a writer died mid-append (or is still
            # appending).  Leave it unconsumed; a later scan picks the
            # record up whole once the line terminates.
            torn += 1
            break
        raw = data[pos:newline]
        if raw:
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError:
                # A torn tail that a later writer newline-terminated.
                # Committed records are never affected; count it and
                # move on rather than wedging readers.
                corrupt += 1
            else:
                lines.append((start + pos, len(raw), payload))
        pos = newline + 1
    return lines, start + pos, torn, corrupt


def _shard_stats(root: Path) -> Tuple[Tuple[str, int, int], ...]:
    """``(name, st_size, st_ino)`` of every shard file, from one scandir."""
    stats = []
    with os.scandir(root) as entries:
        for entry in entries:
            # The same names as ``root.glob(_SHARD_GLOB)``.
            if entry.name.startswith("shard-") and entry.name.endswith(".jsonl"):
                status = entry.stat()
                stats.append((entry.name, status.st_size, status.st_ino))
    return tuple(sorted(stats))


def _read_at(path: Path, offset: int, length: int) -> bytes:
    fd = os.open(path, os.O_RDONLY)
    try:
        return os.pread(fd, length, offset)
    finally:
        os.close(fd)


@dataclass
class _TailMemo:
    """What a full :meth:`SqliteLineIndex.tail` left behind."""

    shards: Tuple[Tuple[str, int, int], ...]  # from _shard_stats
    epoch: int
    frontier: Dict[str, int]
    # (shard, offset, bytes) of each shard's last indexed line, as it
    # passed the rewrite check; None until the check has run on this memo.
    lines: Optional[List[Tuple[str, int, bytes]]] = None


def _visible(entry: LineEntry, frontier: Optional[Dict[str, int]]) -> bool:
    if frontier is None:
        return True
    return entry.offset < frontier.get(entry.shard, 0)


def _matches(
    entry: LineEntry,
    algorithm: Optional[str],
    scheduler: Optional[str],
    ring_size: Optional[int],
    agent_count: Optional[int],
    uniform: Optional[bool],
    hash_prefix: Optional[str],
) -> bool:
    if algorithm is not None and entry.algorithm != algorithm:
        return False
    if scheduler is not None and entry.scheduler != scheduler:
        return False
    if ring_size is not None and entry.ring_size != ring_size:
        return False
    if agent_count is not None and entry.agent_count != agent_count:
        return False
    if uniform is not None and entry.uniform != uniform:
        return False
    if hash_prefix is not None and not entry.content_hash.startswith(
        hash_prefix
    ):
        return False
    return True


class MemoryLineIndex:
    """The historical full-scan index, reshaped around physical lines.

    Per-handle and ephemeral: opening a store with this backend parses
    every shard byte into memory.  Kept as the reference semantics the
    SQLite backend is differentially tested against, and as the slow
    path the ``bench_store`` indexed-vs-scan benchmark measures.
    """

    persistent = False

    def __init__(self) -> None:
        self._by_hash: Dict[str, List[LineEntry]] = {}
        self._consumed: Dict[str, int] = {}
        self._ord = 0
        self.torn_tails = 0
        self.corrupt_lines = 0

    # -- writing -------------------------------------------------------------

    def tail(self, root: Path, only: Optional[str] = None) -> None:
        """Index bytes appended since the last scan (all shards, or one)."""
        if only is not None:
            paths = [root / only]
        else:
            paths = sorted(root.glob(_SHARD_GLOB))
        for path in paths:
            if not path.exists():
                continue
            start = self._consumed.get(path.name, 0)
            size = path.stat().st_size
            lines, consumed, torn, corrupt = parse_shard_lines(
                path, start, size
            )
            self.torn_tails += torn
            self.corrupt_lines += corrupt
            for offset, length, payload in lines:
                self._add(path.name, offset, length, payload)
            self._consumed[path.name] = consumed

    def _add(
        self, shard: str, offset: int, length: int, payload: Dict[str, object]
    ) -> None:
        entry = entry_from_payload(shard, offset, length, payload, self._ord)
        self._ord += 1
        bucket = self._by_hash.setdefault(entry.content_hash, [])
        if any(e.shard == shard and e.offset == offset for e in bucket):
            return  # idempotent re-scan of the same physical line
        bucket.append(entry)

    def add_line(
        self,
        shard: str,
        offset: int,
        length: int,
        payload: Dict[str, object],
        *,
        advance_to: Optional[int] = None,
    ) -> None:
        """Index one line a local ``put`` just appended.

        ``advance_to`` moves the shard's consumed frontier when the
        append was contiguous with it; a gap (torn tail before the
        line) leaves the frontier behind so the next tail re-walks it.
        """
        self._add(shard, offset, length, payload)
        if advance_to is not None:
            self._consumed[shard] = max(
                self._consumed.get(shard, 0), advance_to
            )

    # -- reading -------------------------------------------------------------

    def frontier(self) -> Dict[str, int]:
        return dict(self._consumed)

    def _winner_of(
        self, bucket: List[LineEntry], frontier: Optional[Dict[str, int]]
    ) -> Optional[LineEntry]:
        best: Optional[LineEntry] = None
        for entry in bucket:
            if not _visible(entry, frontier):
                continue
            if best is None or (entry.stamp, entry.ord) >= (
                best.stamp, best.ord
            ):
                best = entry
        return best

    def winner(
        self, content_hash: str, frontier: Optional[Dict[str, int]]
    ) -> Optional[LineEntry]:
        bucket = self._by_hash.get(content_hash)
        if not bucket:
            return None
        return self._winner_of(bucket, frontier)

    def winners_of(
        self, content_hashes: Iterable[str], frontier: Optional[Dict[str, int]]
    ) -> Dict[str, LineEntry]:
        """The winning entry of each given hash that has one."""
        found = {}
        for content_hash in content_hashes:
            entry = self.winner(content_hash, frontier)
            if entry is not None:
                found[content_hash] = entry
        return found

    def winners(
        self,
        frontier: Optional[Dict[str, int]],
        *,
        algorithm: Optional[str] = None,
        scheduler: Optional[str] = None,
        ring_size: Optional[int] = None,
        agent_count: Optional[int] = None,
        uniform: Optional[bool] = None,
        hash_prefix: Optional[str] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> List[LineEntry]:
        """Winning entries in content-hash order, filtered and paginated."""
        matched = []
        for content_hash in sorted(self._by_hash):
            entry = self._winner_of(self._by_hash[content_hash], frontier)
            if entry is None:
                continue
            if not _matches(
                entry, algorithm, scheduler, ring_size, agent_count,
                uniform, hash_prefix,
            ):
                continue
            matched.append(entry)
        if offset:
            matched = matched[offset:]
        if limit is not None:
            matched = matched[:limit]
        return matched

    def count(self, frontier: Optional[Dict[str, int]]) -> int:
        return sum(
            1
            for bucket in self._by_hash.values()
            if self._winner_of(bucket, frontier) is not None
        )

    def count_winners(
        self,
        frontier: Optional[Dict[str, int]],
        *,
        algorithm: Optional[str] = None,
        scheduler: Optional[str] = None,
        ring_size: Optional[int] = None,
        agent_count: Optional[int] = None,
        uniform: Optional[bool] = None,
        hash_prefix: Optional[str] = None,
    ) -> int:
        """Count matching winners without touching any record bytes."""
        return len(
            self.winners(
                frontier,
                algorithm=algorithm,
                scheduler=scheduler,
                ring_size=ring_size,
                agent_count=agent_count,
                uniform=uniform,
                hash_prefix=hash_prefix,
            )
        )

    def hashes(self, frontier: Optional[Dict[str, int]]) -> List[str]:
        return sorted(
            content_hash
            for content_hash, bucket in self._by_hash.items()
            if self._winner_of(bucket, frontier) is not None
        )

    def resolve_prefix(
        self, prefix: str, frontier: Optional[Dict[str, int]]
    ) -> List[str]:
        return [h for h in self.hashes(frontier) if h.startswith(prefix)]

    def rebuild(self, root: Path) -> None:
        self.__init__()
        self.tail(root)

    def close(self) -> None:
        pass


class SqliteLineIndex:
    """Persistent shard index: ``<store>/index.sqlite``.

    Pure derived data: every row mirrors one committed shard line, and
    a ``shards`` table remembers the consumed byte frontier per shard
    file.  Any process may update it (appends are discovered by
    tailing, so even writers that never touch the index — old builds,
    memory-mode handles — are picked up by the next indexed reader),
    and any inconsistency with the shard files on disk (missing or
    shorter shard, schema bump, corrupt database) triggers a full
    rebuild rather than a wrong answer.

    Winners are resolved once per visibility frontier: the first
    question about a frontier materialises its winning lines (one
    ordered pass over the visible ``lines``) into the connection's TEMP
    table ``winners``, keyed by content hash, and every later
    ``count``, ``count_winners``, ``winners``, ``hashes`` and
    ``resolve_prefix`` for the same frontier is a plain indexed query on
    that table.  The table holds one frontier at a time and is rebuilt
    when asked about another one, or when the rows of ``lines`` may
    have changed: this connection inserted or reset rows, or ``PRAGMA
    data_version`` reports a commit by another connection (another
    handle's tail, rebuild or compaction).  Consecutive questions about
    one frozen frontier (a :class:`~repro.store.jsonl.StoreSnapshot`'s
    read-only mapping: a served request's count and then its page)
    share one ``data_version`` read, so they are answered from one state
    of the index; a tail or a question about another frontier ends the
    share.  Lookups by content hash never touch that table: the hashes
    of a resume (:meth:`winners_of`) are resolved together by one
    ``SELECT`` per chunk that searches ``idx_lines_hash`` for each of
    them, and a single hash (:meth:`winner`) is a one-hash chunk.

    Refreshing an unchanged store costs no SQL beyond one ``PRAGMA
    data_version`` and parses no JSON.  A full :meth:`tail` that leaves
    every shard consumed to its end remembers the shard files' ``(name,
    st_size, st_ino)`` from one ``os.scandir``, the write epoch, the
    frontier and, once the rewrite check has passed, the bytes of each
    shard's last indexed line.  The next full tail is a no-op when the
    scan, ``data_version`` and the epoch are unchanged and each of those
    lines still reads back byte for byte: the rewrite check's answer is
    a function of that row and those bytes, so a same-size rewrite in
    place is still caught (whatever its mtime says).  A pending torn tail
    keeps its shard short of its end, so such a store is tailed in full
    every time and the tear is counted in ``torn_tails`` as before.
    :meth:`frontier` right after a full tail answers from that memo.

    Thread safety: one connection per index instance, serialised by an
    RLock (``check_same_thread=False`` so server threads share it);
    cross-process safety comes from SQLite's own locking (WAL mode +
    busy timeout).  Durability is deliberately relaxed
    (``synchronous=OFF``): losing the last transactions to a crash
    merely lags the frontier, and the next tail re-indexes the lines.
    """

    persistent = True

    FILENAME = "index.sqlite"

    _COLUMNS = (
        "shard, offset, length, content_hash, algorithm, scheduler, "
        "ring_size, agent_count, uniform, stamp, ord"
    )

    def __init__(self, root: Path) -> None:
        self.root = root
        self.path = root / self.FILENAME
        self._lock = threading.RLock()
        self.torn_tails = 0
        self.corrupt_lines = 0
        # What temp.winners holds: (rows epoch, frontier key), or None.
        # The epoch moves whenever the rows of ``lines`` or ``shards``
        # may have changed.
        self._epoch = 0
        self._data_version: Optional[int] = None
        self._winners_key: Optional[Tuple] = None
        # The frozen frontier whose question made the last data_version
        # read, while no other read has been made since.
        self._checked: Optional[Mapping[str, int]] = None
        # What the last full tail left (see the class docstring), and
        # its frontier until the next frontier() call takes it.
        self._memo: Optional[_TailMemo] = None
        self._fresh_frontier: Optional[Dict[str, int]] = None
        try:
            self._conn = self._connect()
            self._ensure_schema()
        except sqlite3.DatabaseError:
            # Corrupt database file: the index is derived data, so
            # drop it and start over instead of failing the open.
            self._discard_database()
            self._conn = self._connect()
            self._ensure_schema()

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            str(self.path), timeout=30.0, check_same_thread=False
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=OFF")
        conn.execute("PRAGMA busy_timeout=30000")
        return conn

    def _discard_database(self) -> None:
        try:
            self._conn.close()
        except Exception:
            pass
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(f"{self.path}{suffix}")
            except OSError:
                pass

    def _ensure_schema(self) -> None:
        with self._lock, self._conn:
            self._conn.executescript(
                """
                CREATE TABLE IF NOT EXISTS meta (
                    key TEXT PRIMARY KEY, value TEXT NOT NULL);
                CREATE TABLE IF NOT EXISTS shards (
                    shard TEXT PRIMARY KEY, consumed INTEGER NOT NULL);
                CREATE TABLE IF NOT EXISTS lines (
                    ord INTEGER PRIMARY KEY AUTOINCREMENT,
                    shard TEXT NOT NULL,
                    offset INTEGER NOT NULL,
                    length INTEGER NOT NULL,
                    content_hash TEXT NOT NULL,
                    algorithm TEXT NOT NULL,
                    scheduler TEXT NOT NULL,
                    ring_size INTEGER NOT NULL,
                    agent_count INTEGER NOT NULL,
                    uniform INTEGER,
                    stamp INTEGER NOT NULL);
                CREATE UNIQUE INDEX IF NOT EXISTS idx_lines_pos
                    ON lines(shard, offset);
                CREATE INDEX IF NOT EXISTS idx_lines_hash
                    ON lines(content_hash, stamp, ord);
                CREATE INDEX IF NOT EXISTS idx_lines_fields
                    ON lines(algorithm, ring_size, agent_count);
                """
            )
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta(key, value) VALUES('schema', ?)",
                    (str(INDEX_SCHEMA_VERSION),),
                )
            elif row[0] != str(INDEX_SCHEMA_VERSION):
                # Older (or newer) index layout: rebuild from shards.
                self._reset_locked()

    def _changed_locked(self) -> None:
        """This connection changed ``lines`` or ``shards``."""
        self._epoch += 1
        self._fresh_frontier = None

    def _sync_locked(self) -> None:
        """Move the epoch if another connection committed since the last
        look (``PRAGMA data_version``), and end any shared read."""
        version = self._conn.execute("PRAGMA data_version").fetchone()[0]
        self._checked = None
        if version != self._data_version:
            self._data_version = version
            self._changed_locked()

    def _reset_locked(self) -> None:
        """Drop every derived row (caller holds lock + transaction)."""
        self._changed_locked()
        self._conn.execute("DELETE FROM lines")
        self._conn.execute("DELETE FROM shards")
        self._conn.execute("DELETE FROM meta")
        self._conn.execute(
            "INSERT INTO meta(key, value) VALUES('schema', ?)",
            (str(INDEX_SCHEMA_VERSION),),
        )

    def rebuild(self, root: Path) -> None:
        """Discard the index and re-derive it from the shard files."""
        with self._lock:
            with self._conn:
                self._reset_locked()
            self.tail(root)

    # -- writing -------------------------------------------------------------

    def tail(self, root: Path, only: Optional[str] = None) -> None:
        """Index shard bytes appended since the recorded frontier.

        Detects stale state first: a recorded shard that disappeared or
        shrank means the directory was rewritten under us (renames,
        restores from backup), and the whole index is rebuilt from
        scratch — derived data is never patched into correctness.
        """
        with self._lock:
            self._fresh_frontier = None
            if only is None and self._unchanged_locked(root):
                self._fresh_frontier = self._memo.frontier
                return
            self._memo = None
            recorded = dict(
                self._conn.execute("SELECT shard, consumed FROM shards")
            )
            on_disk = {
                path.name: path for path in sorted(root.glob(_SHARD_GLOB))
            }
            stale = [
                shard
                for shard, consumed in recorded.items()
                if shard not in on_disk
                or on_disk[shard].stat().st_size < consumed
            ]
            if not stale and only is None:
                # Shards are append-only under normal operation, but a
                # reopen must also survive a shard *rewritten in place*
                # (restored from backup, doctored by hand): any rewrite
                # that moves bytes invalidates every recorded offset.
                # Cheap detection: the last indexed line of each shard
                # must still round-trip at its recorded position.
                for shard in recorded:
                    if self._intact_tail_locked(on_disk[shard]) is None:
                        stale.append(shard)
            if stale:
                # A recorded shard vanished or shrank: the directory
                # was rewritten under us, so every derived row is
                # suspect — re-derive the whole index from disk.
                with self._conn:
                    self._reset_locked()
                recorded = {}
                targets = on_disk
            elif only is not None:
                path = root / only
                targets = {only: path} if path.exists() else {}
            else:
                targets = on_disk
            for shard, path in targets.items():
                start = int(recorded.get(shard, 0))
                size = path.stat().st_size
                if size <= start:
                    continue
                lines, consumed, torn, corrupt = parse_shard_lines(
                    path, start, size
                )
                self.torn_tails += torn
                self.corrupt_lines += corrupt
                with self._conn:
                    for offset, length, payload in lines:
                        self._insert_locked(shard, offset, length, payload)
                    self._advance_locked(shard, consumed)
            if only is None:
                self._remember_locked(root)

    def _remember_locked(self, root: Path) -> None:
        """Memoise what a full tail left, if every shard is consumed to
        its end (a torn or racing tail leaves no memo)."""
        self._sync_locked()
        frontier = {
            shard: int(consumed)
            for shard, consumed in self._conn.execute(
                "SELECT shard, consumed FROM shards"
            )
        }
        self._fresh_frontier = frontier
        try:
            shards = _shard_stats(root)
        except OSError:
            return
        if set(frontier) <= {name for name, _, _ in shards} and all(
            size == frontier.get(name, 0) for name, size, _ in shards
        ):
            self._memo = _TailMemo(shards, self._epoch, frontier)

    def _unchanged_locked(self, root: Path) -> bool:
        """Whether a full tail now would change nothing and count nothing."""
        memo = self._memo
        if memo is None:
            return False
        try:
            if _shard_stats(root) != memo.shards:
                return False
        except OSError:
            return False
        self._sync_locked()
        if self._epoch != memo.epoch:
            return False
        if memo.lines is None:
            # First look since the memo was made: run the rewrite check
            # and keep the bytes that passed it.
            lines = []
            for shard in memo.frontier:
                line = self._intact_tail_locked(root / shard)
                if line is None:
                    return False
                if line[1]:
                    lines.append((shard, *line))
            memo.lines = lines
            return True
        return all(
            _read_at(root / shard, offset, len(raw)) == raw
            for shard, offset, raw in memo.lines
        )

    def _intact_tail_locked(self, path: Path) -> Optional[Tuple[int, bytes]]:
        """The last indexed line of ``path`` as ``(offset, bytes)`` if it
        still parses to its indexed row, else None.

        A shard with no indexed line passes as ``(0, b"")``.
        """
        row = self._conn.execute(
            "SELECT offset, length, content_hash, stamp FROM lines "
            "WHERE shard=? ORDER BY offset DESC LIMIT 1",
            (path.name,),
        ).fetchone()
        if row is None:
            return 0, b""
        offset, length, content_hash, stamp = row
        try:
            raw = _read_at(path, int(offset), int(length))
            payload = json.loads(raw)
        except (OSError, ValueError):
            return None
        if (
            isinstance(payload, dict)
            and payload.get("content_hash") == content_hash
            and int(payload.get("_ts", 0)) == int(stamp)
        ):
            return int(offset), raw
        return None

    def _insert_locked(
        self, shard: str, offset: int, length: int, payload: Dict[str, object]
    ) -> None:
        entry = entry_from_payload(shard, offset, length, payload, 0)
        cursor = self._conn.execute(
            "INSERT OR IGNORE INTO lines(shard, offset, length, content_hash,"
            " algorithm, scheduler, ring_size, agent_count, uniform, stamp)"
            " VALUES(?,?,?,?,?,?,?,?,?,?)",
            (
                entry.shard,
                entry.offset,
                entry.length,
                entry.content_hash,
                entry.algorithm,
                entry.scheduler,
                entry.ring_size,
                entry.agent_count,
                None if entry.uniform is None else (1 if entry.uniform else 0),
                entry.stamp,
            ),
        )
        if cursor.rowcount:
            # A new row can land below an existing frontier (a re-walked
            # gap) and always lands in the unbounded view.
            self._changed_locked()

    def _advance_locked(self, shard: str, consumed: int) -> None:
        self._changed_locked()
        self._conn.execute(
            "INSERT INTO shards(shard, consumed) VALUES(?, ?) "
            "ON CONFLICT(shard) DO UPDATE SET consumed=max(consumed, ?)",
            (shard, consumed, consumed),
        )

    def add_line(
        self,
        shard: str,
        offset: int,
        length: int,
        payload: Dict[str, object],
        *,
        advance_to: Optional[int] = None,
    ) -> None:
        """Transactionally index one line a local ``put`` appended."""
        with self._lock, self._conn:
            self._insert_locked(shard, offset, length, payload)
            if advance_to is not None:
                self._advance_locked(shard, advance_to)

    # -- reading -------------------------------------------------------------

    def frontier(self) -> Dict[str, int]:
        with self._lock:
            fresh, self._fresh_frontier = self._fresh_frontier, None
            if fresh is not None:
                return dict(fresh)
            return {
                shard: int(consumed)
                for shard, consumed in self._conn.execute(
                    "SELECT shard, consumed FROM shards"
                )
            }

    @staticmethod
    def _frontier_clause(
        frontier: Optional[Dict[str, int]]
    ) -> Tuple[str, List[object]]:
        if frontier is None:
            return "1", []
        live = [(shard, consumed) for shard, consumed in frontier.items()
                if consumed > 0]
        if not live:
            return "0", []
        parts = " OR ".join("(shard=? AND offset<?)" for _ in live)
        params: List[object] = []
        for shard, consumed in live:
            params.extend((shard, consumed))
        return f"({parts})", params

    @staticmethod
    def _entry(row: Tuple) -> LineEntry:
        return LineEntry(
            shard=row[0],
            offset=int(row[1]),
            length=int(row[2]),
            content_hash=row[3],
            algorithm=row[4],
            scheduler=row[5],
            ring_size=int(row[6]),
            agent_count=int(row[7]),
            uniform=None if row[8] is None else bool(row[8]),
            stamp=int(row[9]),
            ord=int(row[10]),
        )

    def winner(
        self, content_hash: str, frontier: Optional[Dict[str, int]]
    ) -> Optional[LineEntry]:
        return self.winners_of((content_hash,), frontier).get(content_hash)

    def winners_of(
        self, content_hashes: Iterable[str], frontier: Optional[Dict[str, int]]
    ) -> Dict[str, LineEntry]:
        """The winning entry of each given hash that has one.

        One ``SELECT`` per chunk of hashes, answered by a search of
        ``idx_lines_hash`` for each hash in the ``IN`` list, so the cost
        follows the number of hashes asked about and not the size of the
        store.  ``INDEXED BY`` pins that plan: left to itself, SQLite
        may answer the frontier's ``(shard, offset)`` ranges from
        ``idx_lines_pos`` instead, a pass over every visible line (it
        does so for an ``IN`` list, and for a single hash when the
        frontier has one shard, as a store written by one process has).
        Each hash's visible lines come back in ascending ``(stamp,
        ord)`` order (the index order, so no sort), and the last one is
        its winner.  A chunk holds as many hashes as the connection's
        variable limit leaves beside the frontier's two parameters per
        shard.
        """
        clause, params = self._frontier_clause(frontier)
        unique = list(dict.fromkeys(content_hashes))
        last: Dict[str, Tuple] = {}
        with self._lock:
            size = max(
                1,
                self._conn.getlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER)
                - len(params),
            )
            for begin in range(0, len(unique), size):
                chunk = unique[begin:begin + size]
                rows = self._conn.execute(
                    f"SELECT {self._COLUMNS} FROM lines "
                    f"INDEXED BY idx_lines_hash "
                    f"WHERE content_hash IN ({','.join('?' * len(chunk))}) "
                    f"AND {clause} ORDER BY content_hash, stamp, ord",
                    [*chunk, *params],
                )
                for row in rows:
                    last[row[3]] = row
        return {
            content_hash: self._entry(row) for content_hash, row in last.items()
        }

    @staticmethod
    def _frontier_key(
        frontier: Optional[Dict[str, int]]
    ) -> Optional[Tuple[Tuple[str, int], ...]]:
        if frontier is None:
            return None
        return tuple(sorted(
            (shard, consumed) for shard, consumed in frontier.items()
            if consumed > 0
        ))

    def _winners_locked(self, frontier: Optional[Dict[str, int]]) -> None:
        """Make ``temp.winners`` hold ``frontier``'s winners (lock held).

        Rebuilt only when the frontier differs from the one the table
        holds or the rows of ``lines`` may have changed since it was
        filled: this connection bumps ``_epoch`` on every insert and
        reset, and ``PRAGMA data_version`` moves on any commit by
        another connection.  It is read once per run of questions about
        one frozen frontier (see the class docstring).
        """
        if not isinstance(frontier, MappingProxyType) or (
            frontier is not self._checked
        ):
            self._sync_locked()
            self._checked = frontier
        key = (self._epoch, self._frontier_key(frontier))
        if key == self._winners_key:
            return
        clause, params = self._frontier_clause(frontier)
        with self._conn:
            self._conn.execute(
                "CREATE TEMP TABLE IF NOT EXISTS winners ("
                " content_hash TEXT PRIMARY KEY, shard TEXT, offset INTEGER,"
                " length INTEGER, algorithm TEXT, scheduler TEXT,"
                " ring_size INTEGER, agent_count INTEGER, uniform INTEGER,"
                " stamp INTEGER, ord INTEGER) WITHOUT ROWID"
            )
            self._conn.execute("DELETE FROM temp.winners")
            # Visible lines in ascending (stamp, ord) order, each
            # replacing any earlier line of its hash: the last one in,
            # the greatest (stamp, ord), is the winner.
            self._conn.execute(
                f"INSERT OR REPLACE INTO temp.winners({self._COLUMNS}) "
                f"SELECT {self._COLUMNS} FROM lines WHERE {clause} "
                f"ORDER BY stamp, ord",
                params,
            )
        self._winners_key = key

    @staticmethod
    def _filter_clause(
        algorithm: Optional[str],
        scheduler: Optional[str],
        ring_size: Optional[int],
        agent_count: Optional[int],
        uniform: Optional[bool],
        hash_prefix: Optional[str],
    ) -> Tuple[str, List[object]]:
        filters = []
        params: List[object] = []
        for field, value in (
            ("algorithm", algorithm),
            ("scheduler", scheduler),
            ("ring_size", ring_size),
            ("agent_count", agent_count),
        ):
            if value is not None:
                filters.append(f"{field}=?")
                params.append(value)
        if uniform is not None:
            filters.append("uniform=?")
            params.append(1 if uniform else 0)
        if hash_prefix is not None:
            filters.append("substr(content_hash, 1, ?)=?")
            params.extend((len(hash_prefix), hash_prefix))
        return " AND ".join(filters) if filters else "1", params

    def _select_winners(
        self,
        frontier: Optional[Dict[str, int]],
        select: str,
        where: str,
        params: List[object],
        tail_sql: str = "",
    ) -> List[Tuple]:
        with self._lock:
            self._winners_locked(frontier)
            return self._conn.execute(
                f"SELECT {select} FROM temp.winners WHERE {where} {tail_sql}",
                params,
            ).fetchall()

    def winners(
        self,
        frontier: Optional[Dict[str, int]],
        *,
        algorithm: Optional[str] = None,
        scheduler: Optional[str] = None,
        ring_size: Optional[int] = None,
        agent_count: Optional[int] = None,
        uniform: Optional[bool] = None,
        hash_prefix: Optional[str] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> List[LineEntry]:
        where, params = self._filter_clause(
            algorithm, scheduler, ring_size, agent_count, uniform, hash_prefix
        )
        tail = "ORDER BY content_hash"
        if limit is not None or offset:
            # SQLite requires LIMIT before OFFSET; -1 means unbounded.
            tail += " LIMIT ? OFFSET ?"
            params += [-1 if limit is None else limit, offset]
        rows = self._select_winners(frontier, self._COLUMNS, where, params, tail)
        return [self._entry(row) for row in rows]

    def count(self, frontier: Optional[Dict[str, int]]) -> int:
        return self.count_winners(frontier)

    def count_winners(
        self,
        frontier: Optional[Dict[str, int]],
        *,
        algorithm: Optional[str] = None,
        scheduler: Optional[str] = None,
        ring_size: Optional[int] = None,
        agent_count: Optional[int] = None,
        uniform: Optional[bool] = None,
        hash_prefix: Optional[str] = None,
    ) -> int:
        """``SELECT COUNT(*)`` over the winners table — no record bytes read."""
        where, params = self._filter_clause(
            algorithm, scheduler, ring_size, agent_count, uniform, hash_prefix
        )
        return int(self._select_winners(frontier, "COUNT(*)", where, params)[0][0])

    def hashes(self, frontier: Optional[Dict[str, int]]) -> List[str]:
        rows = self._select_winners(
            frontier, "content_hash", "1", [], "ORDER BY content_hash"
        )
        return [row[0] for row in rows]

    def resolve_prefix(
        self, prefix: str, frontier: Optional[Dict[str, int]]
    ) -> List[str]:
        where, params = self._filter_clause(
            None, None, None, None, None, prefix
        )
        rows = self._select_winners(
            frontier, "content_hash", where, params, "ORDER BY content_hash"
        )
        return [row[0] for row in rows]

    def close(self) -> None:
        with self._lock:
            try:
                self._conn.close()
            except Exception:
                pass
