"""The store's secondary index: SQLite vs the JSONL scan, differentially.

The SQLite index (``<store>/index.sqlite``) is pure derived data over
the append-only shards; these tests pin that it can never *disagree*
with the source of truth:

* every index question (hashes, winners, filters, prefix resolution,
  pagination) answered by the SQLite backend equals the answer from a
  full in-memory JSONL scan — including a hypothesis property over
  random put/replace/reopen interleavings,
* the index is rebuilt whenever the shard files change under it
  (deletion, rename, truncation, in-place rewrite, corrupt database,
  schema bump) instead of answering from stale rows,
* snapshots pin a byte frontier: a reader's view is stable across
  concurrent ``put()``s — the threaded stress test at the bottom runs a
  live writer against snapshot readers and asserts nobody ever sees a
  torn or shifting view.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decode import canonical_json
from repro.errors import ConfigurationError
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import (
    SweepSpec, execute_sweep, expand_cells, rows_from_store,
)
from repro.spec import ExperimentSpec, PlacementSpec
from repro.store import RunRecord, RunStore, cached_run
from repro.serve import JobManager, ServeApi
from repro.store.index import (
    INDEX_SCHEMA_VERSION,
    MemoryLineIndex,
    SqliteLineIndex,
)


def _spec(algorithm="known_k_full", seed=1, scheduler="sync", n=18, k=3):
    return ExperimentSpec(
        algorithm=algorithm,
        placement=PlacementSpec(
            kind="random", ring_size=n, agent_count=k, seed=seed
        ),
        scheduler=scheduler,
        scheduler_seed=seed ^ 0xBEEF,
    )


def _record(**kwargs) -> RunRecord:
    spec = _spec(**kwargs)
    return run_experiment(spec).to_record(spec)


# One real result payload reused under many fabricated hashes: cheap
# records for tests that need volume, not physics.
_TEMPLATE = _record(seed=999).to_dict()


def _fake_record(index: int, *, algorithm=None) -> RunRecord:
    data = json.loads(json.dumps(_TEMPLATE))
    data["content_hash"] = f"{index:064x}"
    if algorithm is not None:
        data["result"]["algorithm"] = algorithm
    return RunRecord.from_dict(data)


#: Hashes no test record has.
_ABSENT = ["f" * 64, "e" * 64]


def _same_view(sqlite_store: RunStore, oracle: RunStore) -> None:
    """Assert both handles answer every index question identically."""
    assert sqlite_store.hashes() == oracle.hashes()
    assert len(sqlite_store) == len(oracle)
    for content_hash in oracle.hashes():
        assert sqlite_store.contains(content_hash)
        assert sqlite_store.get(content_hash) == oracle.get(content_hash)
    assert sqlite_store.digest() == oracle.digest()
    # The bulk lookup of the resume paths, with absent and repeated
    # hashes, against the oracle's one-by-one answers.
    hashes = oracle.hashes()
    probe = _ABSENT[:1] + hashes + hashes[:2] + _ABSENT[1:]
    expected = [
        oracle.get(h) if oracle.contains(h) else None for h in probe
    ]
    assert sqlite_store.get_many(probe, default=None) == expected
    assert oracle.get_many(probe, default=None) == expected


class TestDifferentialSqliteVsScan:
    def test_basic_agreement_after_puts(self, tmp_path):
        root = tmp_path / "s"
        store = RunStore(root)
        for seed in range(5):
            store.put(_record(seed=seed))
        _same_view(RunStore(root), RunStore(root, index="memory"))

    def test_agreement_with_replacements(self, tmp_path):
        root = tmp_path / "s"
        store = RunStore(root)
        record = _record(seed=7)
        store.put(record)
        doctored = RunRecord(
            content_hash=record.content_hash,
            result=dict(record.result, total_moves=-1),
            spec=record.spec,
        )
        store.put(doctored, replace=True)
        sqlite_store = RunStore(root)
        oracle = RunStore(root, index="memory")
        _same_view(sqlite_store, oracle)
        assert sqlite_store.get(record.content_hash) == doctored

    def test_query_filters_and_pagination_agree(self, tmp_path):
        root = tmp_path / "s"
        store = RunStore(root)
        for index in range(20):
            algorithm = ("known_k_full", "unknown")[index % 2]
            store.put(_fake_record(index, algorithm=algorithm))
        sqlite_store = RunStore(root)
        oracle = RunStore(root, index="memory")
        for filters in (
            {},
            {"algorithm": "unknown"},
            {"hash_prefix": "0" * 50},
            {"limit": 7},
            {"limit": 7, "offset": 7},
            {"offset": 18},
            {"algorithm": "known_k_full", "limit": 3, "offset": 2},
        ):
            fast = [r.content_hash for r in sqlite_store.query(**filters)]
            slow = [r.content_hash for r in oracle.query(**filters)]
            assert fast == slow, filters
        assert sqlite_store.count(algorithm="unknown") == oracle.count(
            algorithm="unknown"
        )

    def test_pagination_tiles_the_full_listing(self, tmp_path):
        store = RunStore(tmp_path / "s")
        for index in range(13):
            store.put(_fake_record(index))
        pages = []
        for offset in range(0, 13, 4):
            pages.extend(
                r.content_hash for r in store.query(limit=4, offset=offset)
            )
        assert pages == store.hashes()  # no gaps, no repeats, hash order

    def test_verify_index_passes_and_counts(self, tmp_path):
        store = RunStore(tmp_path / "s")
        for seed in range(4):
            store.put(_record(seed=seed))
        assert store.verify_index() == 4

    def test_verify_index_catches_a_poisoned_index(self, tmp_path):
        root = tmp_path / "s"
        store = RunStore(root)
        store.put(_record(seed=3))
        # Corrupt the derived data behind the store's back: claim a
        # record that isn't in any shard.
        conn = sqlite3.connect(root / "index.sqlite")
        with conn:
            conn.execute(
                "INSERT INTO lines(shard, offset, length, content_hash,"
                " algorithm, scheduler, ring_size, agent_count, uniform,"
                " stamp) VALUES('shard-0.jsonl', 0, 10, ?, 'x', 'x', 1, 1,"
                " 0, 9)",
                ("f" * 64,),
            )
        conn.close()
        with pytest.raises(ConfigurationError, match="disagrees"):
            store.verify_index()

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),  # which fake record
                st.booleans(),  # replace?
                st.booleans(),  # reopen the handle first?
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_property_index_equals_scan(self, tmp_path_factory, ops):
        root = tmp_path_factory.mktemp("prop") / "s"
        store = RunStore(root)
        for which, replace, reopen in ops:
            if reopen:
                store = RunStore(root)
            record = _fake_record(which)
            if replace:
                record = RunRecord(
                    content_hash=record.content_hash,
                    result=dict(
                        record.result, total_moves=len(store) * 1000 + which
                    ),
                    spec=record.spec,
                )
            store.put(record, replace=replace)
        store.verify_index()
        _same_view(RunStore(root), RunStore(root, index="memory"))


class TestIndexLifecycle:
    def test_preexisting_store_is_migrated_on_first_open(self, tmp_path):
        root = tmp_path / "s"
        legacy = RunStore(root, index="memory")  # writes no index.sqlite
        for seed in range(3):
            legacy.put(_record(seed=seed))
        assert not (root / "index.sqlite").exists()
        migrated = RunStore(root)  # first sqlite open: full tail
        assert (root / "index.sqlite").exists()
        _same_view(migrated, legacy)

    def test_deleting_the_index_loses_nothing(self, tmp_path):
        root = tmp_path / "s"
        store = RunStore(root)
        for seed in range(3):
            store.put(_record(seed=seed))
        digest = store.digest()
        (root / "index.sqlite").unlink()
        reopened = RunStore(root)
        assert reopened.digest() == digest
        assert len(reopened) == 3

    def test_corrupt_database_file_triggers_rebuild(self, tmp_path):
        root = tmp_path / "s"
        store = RunStore(root)
        store.put(_record(seed=1))
        digest = store.digest()
        (root / "index.sqlite").write_bytes(b"this is not a database")
        reopened = RunStore(root)
        assert reopened.digest() == digest

    def test_schema_bump_triggers_rebuild(self, tmp_path):
        root = tmp_path / "s"
        store = RunStore(root)
        store.put(_record(seed=1))
        conn = sqlite3.connect(root / "index.sqlite")
        with conn:
            conn.execute(
                "UPDATE meta SET value=? WHERE key='schema'",
                (str(INDEX_SCHEMA_VERSION + 1),),
            )
            # Poison a row: a real rebuild must discard it.
            conn.execute("UPDATE lines SET content_hash=?", ("e" * 64,))
        conn.close()
        reopened = RunStore(root)
        assert reopened.hashes() == RunStore(root, index="memory").hashes()

    def test_truncated_shard_triggers_rebuild(self, tmp_path):
        root = tmp_path / "s"
        store = RunStore(root)
        first = _record(seed=1)
        store.put(first)
        store.put(_record(seed=2))
        shard = next(root.glob("shard-*.jsonl"))
        lines = shard.read_bytes().splitlines(keepends=True)
        shard.write_bytes(lines[0])  # drop the second record
        reopened = RunStore(root)
        assert len(reopened) == 1
        assert first.content_hash in reopened

    def test_rebuild_index_method(self, tmp_path):
        store = RunStore(tmp_path / "s")
        for seed in range(3):
            store.put(_record(seed=seed))
        assert store.rebuild_index() == 3
        assert store.verify_index() == 3

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="index backend"):
            RunStore(tmp_path / "s", index="redis")

    def test_memory_and_sqlite_handles_interoperate(self, tmp_path):
        root = tmp_path / "s"
        writer = RunStore(root, index="memory")  # never touches sqlite
        reader = RunStore(root)
        writer.put(_record(seed=5))
        # Tail-driven indexing self-heals: the sqlite reader discovers
        # bytes appended by the index-oblivious writer on refresh.
        assert reader.refresh() == 1
        _same_view(reader, RunStore(root, index="memory"))


class TestSnapshotIsolation:
    def test_snapshot_is_stable_across_puts(self, tmp_path):
        store = RunStore(tmp_path / "s")
        first = _record(seed=1)
        store.put(first)
        snap = store.snapshot()
        assert len(snap) == 1
        later = _record(seed=2)
        store.put(later)
        # The live handle sees its own append; the snapshot does not.
        assert later.content_hash in store
        assert later.content_hash not in snap
        assert len(snap) == 1
        assert snap.hashes() == [first.content_hash]
        assert snap.get(first.content_hash) == first

    def test_snapshot_survives_replacement_of_its_records(self, tmp_path):
        store = RunStore(tmp_path / "s")
        record = _record(seed=3)
        store.put(record)
        snap = store.snapshot()
        doctored = RunRecord(
            content_hash=record.content_hash,
            result=dict(record.result, total_moves=-5),
            spec=record.spec,
        )
        store.put(doctored, replace=True)
        # Append-only shards: the snapshot still reads the *old* line.
        assert store.get(record.content_hash) == doctored
        assert snap.get(record.content_hash) == record

    def test_snapshot_digest_pins_the_frontier(self, tmp_path):
        store = RunStore(tmp_path / "s")
        store.put(_record(seed=1))
        snap = store.snapshot()
        digest = snap.digest()
        store.put(_record(seed=2))
        assert snap.digest() == digest
        assert store.digest() != digest

    def test_refresh_does_not_move_existing_snapshots(self, tmp_path):
        root = tmp_path / "s"
        reader = RunStore(root)
        writer = RunStore(root, index="memory")
        snap = reader.snapshot()
        writer.put(_record(seed=9))
        reader.refresh()
        assert len(reader) == 1
        assert len(snap) == 0


class TestConcurrentAccess:
    def test_writer_thread_vs_snapshot_readers(self, tmp_path):
        """A live writer appending while readers snapshot and query:
        every snapshot's view must be internally consistent (len ==
        hashes == loadable records, stable across the writer's
        progress) and never torn."""
        root = tmp_path / "s"
        writer = RunStore(root)
        records = [_fake_record(i) for i in range(60)]
        errors = []
        done = threading.Event()

        def write() -> None:
            try:
                for record in records:
                    writer.put(record)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)
            finally:
                done.set()

        def read() -> None:
            try:
                reader = RunStore(root)
                while not done.is_set():
                    reader.refresh()
                    snap = reader.snapshot()
                    seen = snap.hashes()
                    # A frozen view: count, listing and every record
                    # must agree with each other right now...
                    assert len(snap) == len(seen)
                    loaded = list(snap.iter_records())
                    assert [r.content_hash for r in loaded] == seen
                    # ...and still agree after the writer moved on.
                    assert snap.hashes() == seen
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        readers = [threading.Thread(target=read) for _ in range(3)]
        writer_thread = threading.Thread(target=write)
        for thread in readers:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=60)
        done.set()
        for thread in readers:
            thread.join(timeout=60)
        assert not errors, errors
        final = RunStore(root)
        assert len(final) == len(records)
        final.verify_index()

    def test_concurrent_puts_across_handles_no_corruption(self, tmp_path):
        root = tmp_path / "s"
        handles = [RunStore(root) for _ in range(4)]
        errors = []

        def hammer(handle, base) -> None:
            try:
                for i in range(15):
                    handle.put(_fake_record(base * 100 + i))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(handle, i))
            for i, handle in enumerate(handles)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        store = RunStore(root)
        assert len(store) == 60
        store.verify_index()
        _same_view(store, RunStore(root, index="memory"))


#: Every fake record's hash below 64, two of them twice, and two absent.
_PROBE = [_fake_record(i).content_hash for i in (*range(64), 1, 5)] + _ABSENT


def _index_answers(index, frontier) -> dict:
    """Every winners-table question, asked of one backend at ``frontier``,
    plus the bulk lookup of :data:`_PROBE`.

    Indexing order (``ord``) is backend-private, so it is dropped from
    the compared entries; everything else must agree exactly.
    """
    def strip(entries):
        return [dataclasses.replace(entry, ord=0) for entry in entries]

    return {
        "winners_of": {
            content_hash: dataclasses.replace(entry, ord=0)
            for content_hash, entry in index.winners_of(
                _PROBE, frontier
            ).items()
        },
        "count": index.count(frontier),
        "hashes": index.hashes(frontier),
        "winners": strip(index.winners(frontier)),
        "unknown": index.count_winners(frontier, algorithm="unknown"),
        "page": strip(index.winners(
            frontier, algorithm="known_k_full", limit=2, offset=1
        )),
        "prefix": index.resolve_prefix("0" * 62, frontier),
    }


def _oracle_answers(root, frontier) -> dict:
    oracle = MemoryLineIndex()
    oracle.tail(root)
    return _index_answers(oracle, frontier)


def _put_fakes(store, indexes) -> None:
    for index in indexes:
        store.put(_fake_record(
            index, algorithm=("known_k_full", "unknown")[index % 2]
        ))


def _replacement(index: int) -> RunRecord:
    record = _fake_record(index, algorithm="unknown")
    return RunRecord(
        content_hash=record.content_hash,
        result=dict(record.result, total_moves=-index),
        spec=record.spec,
    )


class TestWinnersTable:
    """The SQLite backend's per-frontier winners table vs the JSONL scan.

    ``SqliteLineIndex`` answers counts, pages, hash listings and prefix
    lookups from a table of one frontier's winners that it keeps until
    the frontier moves or the ``lines`` rows change.  Each test moves
    the ground under a filled table — appends, replacements, another
    connection's rebuild, compaction, a corrupt database — and checks
    the table's answers against a fresh :class:`MemoryLineIndex`.
    """

    def test_pinned_snapshot_keeps_answers_across_appends(self, tmp_path):
        root = tmp_path / "s"
        reader = RunStore(root)
        _put_fakes(reader, range(8))
        snapshot = reader.snapshot()
        pinned = snapshot._frontier
        before = _index_answers(reader._index, pinned)
        assert before == _oracle_answers(root, pinned)
        digest = snapshot.digest()
        listing = [r.content_hash for r in snapshot.query(limit=3, offset=2)]

        writer = RunStore(root)  # another handle, another connection
        _put_fakes(writer, range(8, 12))
        writer.put(_replacement(2), replace=True)
        writer.put(_replacement(5), replace=True)
        reader.refresh()  # the reader's table moves to the new frontier

        moved = reader._frontier
        assert moved != pinned
        assert _index_answers(reader._index, moved) == _oracle_answers(
            root, moved
        )
        assert reader.get(_fake_record(5).content_hash).result[
            "total_moves"
        ] == -5
        # Back to the pinned frontier: the same answers as before.
        assert _index_answers(reader._index, pinned) == before
        assert snapshot.digest() == digest
        assert len(snapshot) == 8
        assert snapshot.count(algorithm="unknown") == 4
        assert [
            r.content_hash for r in snapshot.query(limit=3, offset=2)
        ] == listing

    def test_newest_stamp_wins_across_shards(self, tmp_path):
        # The line indexed first (lower ``ord``) can carry the newer
        # stamp when shards are tailed in name order; stamp ties (lines
        # written without one) go to the line indexed last.
        root = tmp_path / "s"
        root.mkdir()
        older, newer = _replacement(1).to_dict(), _fake_record(1).to_dict()
        tied_a, tied_b = _fake_record(2).to_dict(), _replacement(2).to_dict()

        def line(payload, **envelope):
            return json.dumps(dict(payload, **envelope), sort_keys=True,
                              separators=(",", ":")) + "\n"

        (root / "shard-a.jsonl").write_text(
            line(newer, _ts=20) + line(tied_a)
        )
        (root / "shard-b.jsonl").write_text(
            line(older, _ts=10) + line(tied_b)
        )
        store = RunStore(root)
        frontier = store._frontier
        assert _index_answers(store._index, frontier) == _oracle_answers(
            root, frontier
        )
        assert store.get(newer["content_hash"]).to_dict() == newer
        assert store.get(tied_b["content_hash"]).to_dict() == tied_b
        assert store.digest() == RunStore(root, index="memory").digest()

    def test_other_handles_rebuild_index_invalidates_the_table(self, tmp_path):
        root = tmp_path / "s"
        reader = RunStore(root)
        _put_fakes(reader, range(6))
        frontier = reader._frontier
        stale = reader._index.winners(frontier)

        RunStore(root).rebuild_index()  # new rows, new ``ord`` values

        fresh = SqliteLineIndex(root)
        try:
            expected = fresh.winners(frontier)
        finally:
            fresh.close()
        assert [e.ord for e in expected] != [e.ord for e in stale]
        assert reader._index.winners(frontier) == expected
        assert _index_answers(reader._index, frontier) == _oracle_answers(
            root, frontier
        )

    def test_other_handles_truncation_rebuild_invalidates_the_table(
        self, tmp_path
    ):
        root = tmp_path / "s"
        reader = RunStore(root)
        _put_fakes(reader, range(6))
        assert len(reader) == 6  # fills the table at the reader's frontier
        shard = next(root.glob("shard-*.jsonl"))
        lines = shard.read_bytes().splitlines(keepends=True)
        shard.write_bytes(b"".join(lines[:4]))  # drop the last two records

        assert len(RunStore(root)) == 4  # this open rebuilds the index

        # The reader never refreshed: its frontier still covers the cut
        # bytes, but only surviving lines exist below it now.
        frontier = reader._frontier
        assert _index_answers(reader._index, frontier) == _oracle_answers(
            root, frontier
        )
        assert len(reader) == 4
        assert reader.hashes() == [_fake_record(i).content_hash
                                   for i in range(4)]

    def test_compact_invalidates_the_table(self, tmp_path):
        root = tmp_path / "s"
        store = RunStore(root)
        _put_fakes(store, range(6))
        for index in (1, 4):
            store.put(_replacement(index), replace=True)
        digest = store.digest()  # fills the table before compaction
        other = RunStore(root)
        assert len(other) == 6  # a table on another connection too

        assert store.compact() > 0
        frontier = store._frontier
        assert _index_answers(store._index, frontier) == _oracle_answers(
            root, frontier
        )
        assert store.digest() == digest
        other.refresh()
        assert _index_answers(other._index, other._frontier) == (
            _oracle_answers(root, other._frontier)
        )
        assert other.digest() == digest

    def test_corrupt_database_is_rebuilt_before_the_table(self, tmp_path):
        root = tmp_path / "s"
        store = RunStore(root)
        _put_fakes(store, range(5))
        store.put(_replacement(3), replace=True)
        digest = store.digest()
        store.close()
        (root / "index.sqlite").write_bytes(b"this is not a database")

        reopened = RunStore(root)
        frontier = reopened._frontier
        assert _index_answers(reopened._index, frontier) == _oracle_answers(
            root, frontier
        )
        assert reopened.digest() == digest

    def test_own_writes_invalidate_the_unbounded_view(self, tmp_path):
        root = tmp_path / "s"
        store = RunStore(root)
        _put_fakes(store, range(3))
        assert store.verify_index() == 3  # fills the table for ``None``
        _put_fakes(store, range(3, 5))  # rows inserted by this connection
        assert store.verify_index() == 5
        index = store._index
        assert index.count(None) == 5
        for shard in root.glob("shard-*.jsonl"):
            shard.unlink()
        index.tail(root)  # every recorded shard vanished: reset, no rows
        assert index.count(None) == 0
        assert index.hashes(None) == []

    def test_threads_sharing_one_table_keep_their_snapshots(self, tmp_path):
        # Serve threads share one handle, so one winners table: readers
        # pinned to different frontiers make it refill on nearly every
        # question while another handle appends and replaces.  Each
        # reader must keep getting its own snapshot's answers.
        root = tmp_path / "s"
        store = RunStore(root)
        snapshots = []
        for step in range(4):
            _put_fakes(store, range(step * 5, step * 5 + 5))
            snapshots.append(store.snapshot())

        def answers(snapshot):
            return (
                snapshot.hashes(),
                len(snapshot),
                snapshot.count(algorithm="unknown"),
                [r.content_hash for r in snapshot.query(limit=3, offset=1)],
            )

        expected = [answers(snapshot) for snapshot in snapshots]
        writer = RunStore(root)
        errors = []
        done = threading.Event()

        def read(snapshot, answer) -> None:
            try:
                rounds = 0
                while rounds < 20 or not done.is_set():
                    assert answers(snapshot) == answer
                    rounds += 1
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def write() -> None:
            try:
                _put_fakes(writer, range(20, 30))
                for index in range(0, 20, 3):
                    writer.put(_replacement(index), replace=True)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)
            finally:
                done.set()

        threads = [
            threading.Thread(target=read, args=pair)
            for pair in zip(snapshots, expected)
        ]
        threads.append(threading.Thread(target=write))
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        store.refresh()
        assert _index_answers(store._index, store._frontier) == (
            _oracle_answers(root, store._frontier)
        )

    def test_repeated_runs_request_resolves_winners_once(self, tmp_path):
        root = tmp_path / "s"
        store = RunStore(root)
        _put_fakes(store, range(10))
        jobs = JobManager(str(root), workers=1)
        try:
            api = ServeApi(store, jobs)
            statements = []
            store._index._conn.set_trace_callback(statements.append)
            query = {"algorithm": "unknown", "limit": "2", "offset": "1"}

            status, first = api.handle("GET", "/v1/runs", query)
            assert status == 200 and first["total"] == 5
            builds = [s for s in statements if s.startswith("INSERT")
                      and "temp.winners" in s]
            assert len(builds) == 1, builds

            statements.clear()
            assert api.handle("GET", "/v1/runs", query) == (200, first)
            assert statements  # the trace callback is live
            writes = [s for s in statements if "temp.winners" in s
                      and not s.startswith("SELECT")]
            assert not writes, writes
        finally:
            store._index._conn.set_trace_callback(None)
            jobs.shutdown(timeout=2.0)


class TestSqliteLineIndexInternals:
    def test_frontier_clause_empty_frontier_matches_nothing(self, tmp_path):
        index = SqliteLineIndex(tmp_path)
        clause, params = index._frontier_clause({})
        assert clause == "0" and params == []

    def test_add_line_is_idempotent(self, tmp_path):
        root = tmp_path
        index = SqliteLineIndex(root)
        payload = {"content_hash": "a" * 64, "_ts": 5, "result": {}}
        index.add_line("shard-1.jsonl", 0, 40, payload, advance_to=41)
        index.add_line("shard-1.jsonl", 0, 40, payload, advance_to=41)
        assert index.count(None) == 1
        assert index.frontier() == {"shard-1.jsonl": 41}


def _raw_line(index: int, stamp: int) -> bytes:
    """One record line as any writer, index-aware or not, appends it."""
    payload = dict(_fake_record(index).to_dict(), _ts=stamp)
    return (canonical_json(payload) + "\n").encode("utf-8")


def _rewrite_last_record_in_place(shard) -> bool:
    """Give the last record line of ``shard`` another content hash.

    The rewrite keeps the file's size, inode and mtime, which is what a
    ``(size, mtime, inode)`` check cannot see.  Returns False when the
    shard holds no record line.
    """
    status = shard.stat()
    data = shard.read_bytes()
    offset = 0
    last = None
    for raw in data.split(b"\n")[:-1]:  # complete lines only
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = None
        if isinstance(payload, dict) and "content_hash" in payload:
            last = (offset, raw, payload["content_hash"])
        offset += len(raw) + 1
    if last is None:
        return False
    offset, raw, old = last
    new = old[:-1] + ("1" if old[-1] == "0" else "0")
    rewritten = raw.replace(
        f'"content_hash":"{old}"'.encode(), f'"content_hash":"{new}"'.encode()
    )
    assert len(rewritten) == len(raw) and rewritten != raw
    with shard.open("r+b") as handle:
        handle.seek(offset)
        handle.write(rewritten)
    os.utime(shard, ns=(status.st_atime_ns, status.st_mtime_ns))
    after = shard.stat()
    assert (after.st_size, after.st_ino, after.st_mtime_ns) == (
        status.st_size, status.st_ino, status.st_mtime_ns
    )
    return True


def _matches_a_fresh_scan(store: RunStore) -> None:
    _same_view(store, RunStore(store.root, index="memory"))
    oracle = MemoryLineIndex()
    oracle.tail(store.root)

    def consumed(frontier):
        return {shard: end for shard, end in frontier.items() if end}

    assert consumed(store._frontier) == consumed(oracle.frontier())


class TestRefreshOfAnUnchangedStore:
    """``refresh()`` of a store that did not change skips the SQL and the
    JSON parse, and still sees every change the full tail sees."""

    @staticmethod
    def _warm(root, refreshes=2):
        store = RunStore(root)
        _put_fakes(store, range(6))
        (root / "shard-1.jsonl").write_bytes(
            _raw_line(40, 1) + _raw_line(41, 2)
        )
        for _ in range(refreshes):
            store.refresh()
        return store

    def test_unchanged_refresh_reads_data_version_only(
        self, tmp_path, monkeypatch
    ):
        store = self._warm(tmp_path / "s")
        frontier = dict(store._frontier)
        statements = []
        store._index._conn.set_trace_callback(statements.append)

        def no_parse(*args, **kwargs):
            raise AssertionError("an unchanged refresh parsed JSON")

        monkeypatch.setattr(json, "loads", no_parse)
        try:
            for _ in range(3):
                assert store.refresh() == 0
        finally:
            monkeypatch.undo()
            store._index._conn.set_trace_callback(None)
        assert statements == ["PRAGMA data_version"] * 3
        assert store._frontier == frontier

    def test_runs_request_shares_one_version_read(self, tmp_path):
        store = self._warm(tmp_path / "s")
        jobs = JobManager(str(store.root), workers=1)
        try:
            api = ServeApi(store, jobs)
            query = {"algorithm": "unknown", "limit": "2", "offset": "1"}
            first = api.handle("GET", "/v1/runs", query)
            statements = []
            store._index._conn.set_trace_callback(statements.append)
            assert api.handle("GET", "/v1/runs", query) == first
        finally:
            store._index._conn.set_trace_callback(None)
            jobs.shutdown(timeout=2.0)
        # One read for the refresh, one for the count and the page.
        assert statements.count("PRAGMA data_version") == 2
        assert all(
            s == "PRAGMA data_version" or "FROM temp.winners" in s
            for s in statements
        ), statements

    @pytest.mark.parametrize("refreshes", [1, 2], ids=["first", "warm"])
    def test_same_size_rewrite_with_restored_mtime_rebuilds(
        self, tmp_path, refreshes
    ):
        # After one refresh the rewrite check has not run on the memo
        # yet; after two it compares the kept bytes.
        root = tmp_path / "s"
        store = self._warm(root, refreshes)
        before = store.hashes()
        assert _rewrite_last_record_in_place(root / "shard-1.jsonl")
        store.refresh()
        assert store.hashes() != before
        _matches_a_fresh_scan(store)
        store.verify_index()

    def test_repeated_refreshes_over_a_torn_tail_count_each(self, tmp_path):
        root = tmp_path / "s"
        store = self._warm(root)
        oracle = RunStore(root, index="memory")
        with (root / "shard-1.jsonl").open("ab") as handle:
            handle.write(b'{"content_hash":"ab')
        for expected in (1, 2, 3):
            assert store.refresh() == 0
            oracle.refresh()
            assert store._index.torn_tails == expected
            assert oracle._index.torn_tails == expected
        with (root / "shard-1.jsonl").open("ab") as handle:
            handle.write(b"\n" + _raw_line(42, 3))
        assert store.refresh() == 1
        assert store._index.torn_tails == 3
        assert store._index.corrupt_lines == 1
        for _ in range(2):
            assert store.refresh() == 0
        assert store._index.torn_tails == 3
        _matches_a_fresh_scan(store)

    @pytest.mark.parametrize(
        "change", ["other_handle_put", "raw_append", "new_shard",
                   "deleted_shard", "other_handle_rebuild"],
    )
    def test_next_refresh_sees_the_change(self, tmp_path, change):
        root = tmp_path / "s"
        store = self._warm(root)
        before = store.hashes()
        if change == "other_handle_put":
            RunStore(root).put(_fake_record(50))
        elif change == "raw_append":
            with (root / "shard-1.jsonl").open("ab") as handle:
                handle.write(_raw_line(51, 3))
        elif change == "new_shard":
            (root / "shard-2.jsonl").write_bytes(_raw_line(52, 3))
        elif change == "deleted_shard":
            (root / "shard-1.jsonl").unlink()
        else:
            # No shard byte changes; only the index rows (new ``ord``s).
            RunStore(root).rebuild_index()
        store.refresh()
        if change == "deleted_shard":
            assert len(store.hashes()) == len(before) - 2
        elif change != "other_handle_rebuild":
            assert len(store.hashes()) == len(before) + 1
        _matches_a_fresh_scan(store)
        frontier = store._frontier
        assert _index_answers(store._index, frontier) == _oracle_answers(
            root, frontier
        )

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from([
                    "put", "other_put", "raw", "torn", "mend", "rewrite",
                    "delete", "refresh", "refresh",
                ]),
                # Which record; for "refresh", how many (1-3).
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=1, max_value=3),  # which foreign shard
            ),
            min_size=1,
            max_size=16,
        )
    )
    def test_property_refresh_interleavings_equal_scan(
        self, tmp_path_factory, ops
    ):
        # Puts through this handle and another connection, appends by a
        # writer that never touches the index, torn tails, in-place
        # rewrites and deleted shards, each followed by any number of
        # refreshes: after every refresh the handle answers like a fresh
        # JSONL scan and has counted every pending torn tail once more.
        root = tmp_path_factory.mktemp("refresh") / "s"
        store = RunStore(root)
        other = RunStore(root)
        torn = set()  # foreign shards ending in an unterminated line
        expected_torn = 0
        for stamp, (op, which, shard_no) in enumerate(ops, start=1):
            shard = root / f"shard-{shard_no}.jsonl"
            if op == "put":
                store.put(_fake_record(which))
            elif op == "other_put":
                other.put(_fake_record(10 + which))
            elif op == "raw":
                with shard.open("ab") as handle:
                    handle.write(_raw_line(20 + which, stamp))
                torn.discard(shard.name)  # fenced into a corrupt line
            elif op == "torn" and shard.name not in torn:
                with shard.open("ab") as handle:
                    handle.write(b'{"content_hash":"ab')
                torn.add(shard.name)
            elif op == "mend" and shard.name in torn:
                with shard.open("ab") as handle:
                    handle.write(b"\n")
                torn.discard(shard.name)
            elif op == "rewrite" and shard.exists():
                _rewrite_last_record_in_place(shard)
            elif op == "delete" and shard.exists():
                shard.unlink()
                torn.discard(shard.name)
            elif op == "refresh":
                for _ in range(1 + which % 3):
                    store.refresh()
                    expected_torn += len(torn)
                    assert store._index.torn_tails == expected_torn
                    _matches_a_fresh_scan(store)
        store.refresh()
        store.verify_index()
        _matches_a_fresh_scan(store)


class TestBulkLookups:
    """``get_many``/``winners_of``: every hash of a resume in one query."""

    def test_snapshot_answers_do_not_move(self, tmp_path):
        root = tmp_path / "s"
        store = RunStore(root)
        _put_fakes(store, range(6))
        snapshot = store.snapshot()
        before = snapshot.get_many(_PROBE, default=None)
        assert [r is not None for r in before] == [
            h in snapshot for h in _PROBE
        ]
        _put_fakes(RunStore(root), range(6, 10))
        store.put(_replacement(2), replace=True)
        _put_fakes(store, range(10, 12))
        assert snapshot.get_many(_PROBE, default=None) == before
        _same_view(RunStore(root), RunStore(root, index="memory"))
        now = store.get_many(_PROBE, default=None)
        assert now[2] == _replacement(2) != before[2]
        assert sum(r is not None for r in now) == 14  # 12, two twice

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),  # which fake record
                st.booleans(),  # replace?
                st.booleans(),  # reopen the handle first?
                st.booleans(),  # snapshot after the put?
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_property_snapshots_keep_their_bulk_answers(
        self, tmp_path_factory, ops
    ):
        # Snapshots taken between puts, replacements and reopens: each
        # keeps the get_many answer it gave when taken, and the index
        # answers at its frontier like a fresh JSONL scan.
        root = tmp_path_factory.mktemp("bulk") / "s"
        store = RunStore(root)
        taken = []
        for step, (which, replace, reopen, snap) in enumerate(ops):
            if reopen:
                store = RunStore(root)
            record = _fake_record(which)
            if replace:
                record = RunRecord(
                    content_hash=record.content_hash,
                    result=dict(record.result, total_moves=step),
                    spec=record.spec,
                )
            store.put(record, replace=replace)
            if snap:
                snapshot = store.snapshot()
                taken.append(
                    (snapshot, snapshot.get_many(_PROBE, default=None))
                )
        for snapshot, answer in taken:
            assert snapshot.get_many(_PROBE, default=None) == answer
            frontier = snapshot._frontier
            assert _index_answers(store._index, frontier) == (
                _oracle_answers(root, frontier)
            )
        _same_view(RunStore(root), RunStore(root, index="memory"))

    def test_chunks_under_a_small_variable_limit(self, tmp_path):
        root = tmp_path / "s"
        store = RunStore(root)
        _put_fakes(store, range(10))
        (root / "shard-1.jsonl").write_bytes(
            b"".join(_raw_line(i, i) for i in range(10, 20))
        )
        store.put(_replacement(4), replace=True)
        store.refresh()
        frontier = store._frontier
        assert len(frontier) == 2  # two shards: four frontier parameters
        expected = _index_answers(store._index, frontier)
        conn = store._index._conn
        conn.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 7)
        statements = []
        conn.set_trace_callback(statements.append)
        try:
            answers = _index_answers(store._index, frontier)
        finally:
            conn.set_trace_callback(None)
        assert answers == expected == _oracle_answers(root, frontier)
        lookups = [s for s in statements if "content_hash IN" in s]
        assert len(lookups) == 22  # 64 distinct hashes, 3 per query

    @pytest.mark.parametrize("shards", [1, 2])
    def test_lookups_search_the_hash_index(self, tmp_path, shards):
        # Unpinned, SQLite answers a one-shard frontier's single-hash
        # lookup, and any frontier's IN list, from idx_lines_pos: a pass
        # over every visible line.
        root = tmp_path / "s"
        store = RunStore(root)
        _put_fakes(store, range(4))
        if shards == 2:
            (root / "shard-1.jsonl").write_bytes(
                b"".join(_raw_line(i, i) for i in range(4, 8))
            )
            store.refresh()
        assert len(store._frontier) == shards
        statements = []
        store._index._conn.set_trace_callback(statements.append)
        try:
            store.get_many(_PROBE, default=None)
            assert _PROBE[0] in store
            store.put(_fake_record(0))
        finally:
            store._index._conn.set_trace_callback(None)
        lookups = [s for s in statements if "FROM lines" in s]
        assert len(lookups) == 3
        for lookup in lookups:
            plan = [
                row[3]
                for row in store._index._conn.execute(
                    "EXPLAIN QUERY PLAN " + lookup
                )
            ]
            assert plan == [
                "SEARCH lines USING INDEX idx_lines_hash (content_hash=?)"
            ]


class TestResumeLookups:
    """The resume paths ask the index one query, whatever their size."""

    @staticmethod
    def _spec(sizes, schedulers=("sync", "random")):
        return SweepSpec(
            algorithms=("known_k_full", "unknown"),
            grid=tuple((n, 3) for n in sizes),
            schedulers=schedulers,
            trials=2,
            base_seed=5,
        )

    @staticmethod
    def _traced_warm_run(root, spec):
        store = RunStore(root)
        cold = execute_sweep(spec, processes=1, store=store)
        # The first warm run leaves the tail memo, the second runs its
        # rewrite check: from then on a refresh is one data_version read.
        for _ in range(2):
            execute_sweep(spec, processes=1, store=store)
        statements = []
        store._index._conn.set_trace_callback(statements.append)
        try:
            warm = execute_sweep(spec, processes=1, store=store)
        finally:
            store._index._conn.set_trace_callback(None)
        assert warm.executed == 0 and warm.cached == cold.executed
        assert warm.rows == cold.rows
        return statements

    def test_warm_sweep_statements_do_not_grow_with_cells(self, tmp_path):
        small = self._traced_warm_run(tmp_path / "a", self._spec((9,)))
        large = self._traced_warm_run(
            tmp_path / "b", self._spec((9, 10, 11, 12, 13))
        )
        assert len(expand_cells(self._spec((9, 10, 11, 12, 13)))) == 40
        assert len(small) == len(large) == 2, large
        assert large[0] == "PRAGMA data_version"
        assert "content_hash IN" in large[1]

    def test_half_archived_resume_equals_a_cold_serial_sweep(self, tmp_path):
        spec = self._spec((9, 10))
        cold_store = RunStore(tmp_path / "cold")
        cold = execute_sweep(spec, processes=1, store=cold_store)
        store = RunStore(tmp_path / "resumed")
        half = execute_sweep(
            self._spec((9, 10), schedulers=("sync",)), processes=1,
            store=store,
        )
        resumed = execute_sweep(spec, processes=2, store=store)
        assert (resumed.executed, resumed.cached) == (half.total, half.total)
        assert resumed.rows == cold.rows
        assert store.digest() == cold_store.digest()
        assert rows_from_store(RunStore(tmp_path / "resumed"), spec) == (
            cold.rows
        )

    def test_cached_run_hit_is_one_lookup(self, tmp_path):
        store = RunStore(tmp_path / "s")
        spec = _spec(seed=4)
        computed, hit = cached_run(spec, store)
        assert not hit
        statements = []
        store._index._conn.set_trace_callback(statements.append)
        try:
            cached, hit = cached_run(spec, store)
        finally:
            store._index._conn.set_trace_callback(None)
        assert hit and cached == computed
        (lookup,) = statements
        assert "content_hash IN" in lookup
