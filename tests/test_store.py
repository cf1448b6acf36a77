"""Tests for the content-addressed run store (records + JSONL backend).

The headline contract is the differential guarantee: for any
``ExperimentSpec``, ``RunResult.from_record(store.get(spec.content_hash()))``
equals the freshly computed ``RunResult`` — metrics, final positions and
verification report — across all four algorithms and several scheduler
families.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import RunResult, run_experiment
from repro.experiments.serialize import results_from_json
from repro.spec import ExperimentSpec, PlacementSpec
from repro.store import (
    STORE_SCHEMA_VERSION,
    RunRecord,
    RunStore,
    cached_run,
    env_fingerprint,
)

ALGORITHMS = ("known_k_full", "known_n_full", "known_k_logspace", "unknown")
SCHEDULERS = ("sync", "random", "burst")


def _spec(algorithm="known_k_full", seed=1, scheduler="sync", n=18, k=3):
    return ExperimentSpec(
        algorithm=algorithm,
        placement=PlacementSpec(
            kind="random", ring_size=n, agent_count=k, seed=seed
        ),
        scheduler=scheduler,
        scheduler_seed=seed ^ 0xBEEF,
    )


class TestRunRecord:
    def test_round_trip_with_spec(self):
        spec = _spec()
        result = run_experiment(spec)
        record = result.to_record(spec)
        assert record.content_hash == spec.content_hash()
        rebuilt = RunRecord.from_dict(record.to_dict())
        assert rebuilt == record
        assert RunResult.from_record(rebuilt) == result
        assert rebuilt.experiment_spec() == spec

    def test_round_trip_without_spec(self):
        spec = _spec(seed=4)
        result = run_experiment(spec)
        record = result.to_record()
        assert record.spec is None
        assert record.experiment_spec() is None
        # Specless records still get a stable, distinct content address.
        assert record.content_hash == result.to_record().content_hash
        assert record.content_hash != result.to_record(spec).content_hash
        assert RunResult.from_record(record) == result

    def test_record_is_json_safe(self):
        spec = _spec(seed=5)
        record = run_experiment(spec).to_record(spec)
        text = json.dumps(record.to_dict())
        assert RunRecord.from_dict(json.loads(text)) == record

    def test_env_fingerprint_rides_along(self):
        record = run_experiment(_spec(seed=6)).to_record()
        assert set(env_fingerprint()) == {
            "python", "implementation", "platform", "repro"
        }
        assert record.env["repro"] == env_fingerprint()["repro"]

    def test_mismatched_spec_rejected(self):
        spec = _spec(algorithm="known_k_full", seed=7)
        result = run_experiment(spec)
        other = _spec(algorithm="unknown", seed=7)
        with pytest.raises(ConfigurationError, match="does not match"):
            result.to_record(other)

    def test_future_schema_version_rejected_loudly(self):
        spec = _spec(seed=8)
        data = run_experiment(spec).to_record(spec).to_dict()
        data["schema_version"] = STORE_SCHEMA_VERSION + 3
        with pytest.raises(
            ConfigurationError,
            match=(
                rf"store schema version {STORE_SCHEMA_VERSION + 3}, but this "
                rf"build reads at most {STORE_SCHEMA_VERSION}"
            ),
        ):
            RunRecord.from_dict(data)

    def test_missing_schema_version_rejected(self):
        with pytest.raises(ConfigurationError, match="schema_version"):
            RunRecord.from_dict({"content_hash": "x", "result": {}})

    def test_truncated_payload_rejected(self):
        with pytest.raises(ConfigurationError, match="missing keys"):
            RunRecord(content_hash="x", result={"algorithm": "known_k_full"})


class TestDifferentialGuarantee:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_archived_equals_fresh(self, tmp_path, algorithm, scheduler):
        spec = _spec(algorithm=algorithm, scheduler=scheduler, seed=13)
        fresh = run_experiment(spec)
        store = RunStore(tmp_path / "store")
        store.put(fresh.to_record(spec))
        archived = RunResult.from_record(store.get(spec.content_hash()))
        assert archived == fresh
        assert archived.final_positions == fresh.final_positions
        assert archived.report == fresh.report
        assert archived.row() == fresh.row()


class TestRunStore:
    def test_put_get_contains_len(self, tmp_path):
        store = RunStore(tmp_path / "s")
        spec = _spec(seed=21)
        record = run_experiment(spec).to_record(spec)
        assert store.put(record) is True
        assert store.put(record) is False  # content-addressed: no dup
        assert len(store) == 1
        assert spec.content_hash() in store
        assert store.get(spec.content_hash()) == record
        with pytest.raises(KeyError):
            store.get("0" * 64)

    def test_reopen_rebuilds_index(self, tmp_path):
        root = tmp_path / "s"
        store = RunStore(root)
        records = []
        for seed in range(3):
            spec = _spec(seed=seed)
            record = run_experiment(spec).to_record(spec)
            store.put(record)
            records.append(record)
        reopened = RunStore(root)
        assert len(reopened) == 3
        # Iteration order is sorted content-hash order — stable across
        # shard layouts, not dependent on which pid wrote what when.
        assert list(reopened.iter_records()) == sorted(
            records, key=lambda r: r.content_hash
        )

    def test_refresh_sees_other_writers(self, tmp_path):
        root = tmp_path / "s"
        reader = RunStore(root)
        writer = RunStore(root)
        spec = _spec(seed=31)
        writer.put(run_experiment(spec).to_record(spec))
        assert spec.content_hash() not in reader
        assert reader.refresh() == 1
        assert spec.content_hash() in reader

    def test_put_never_hides_same_shard_appends(self, tmp_path):
        # Two handles in one process share the pid shard: b's put must
        # index a's committed record (not skip its bytes), and both
        # records must stay visible to every handle afterwards.
        root = tmp_path / "s"
        a = RunStore(root)
        b = RunStore(root)
        spec_a, spec_b = _spec(seed=32), _spec(seed=33)
        a.put(run_experiment(spec_a).to_record(spec_a))
        b.put(run_experiment(spec_b).to_record(spec_b))
        assert spec_a.content_hash() in b and spec_b.content_hash() in b
        assert b.refresh() == 0  # nothing was left behind
        assert a.refresh() == 1  # a picks up b's append
        assert len(a) == len(b) == len(RunStore(root)) == 2
        # And a duplicate put through the second handle stays a no-op.
        assert b.put(run_experiment(spec_a).to_record(spec_a)) is False

    def test_query_filters(self, tmp_path):
        store = RunStore(tmp_path / "s")
        for algorithm, seed in (("known_k_full", 1), ("unknown", 2)):
            for scheduler in ("sync", "random"):
                spec = _spec(algorithm=algorithm, scheduler=scheduler, seed=seed)
                store.put(run_experiment(spec).to_record(spec))
        assert len(list(store.query())) == 4
        assert len(list(store.query(algorithm="unknown"))) == 2
        assert len(list(store.query(scheduler="random"))) == 2
        assert len(list(store.query(algorithm="unknown", scheduler="sync"))) == 1
        assert list(store.query(ring_size=18, agent_count=3, uniform=True))
        assert not list(store.query(ring_size=99))
        some_hash = store.hashes()[0]
        matched = list(store.query(hash_prefix=some_hash[:12]))
        assert [record.content_hash for record in matched] == [some_hash]

    def test_replace_points_at_newest(self, tmp_path):
        store = RunStore(tmp_path / "s")
        spec = _spec(seed=41)
        record = run_experiment(spec).to_record(spec)
        store.put(record)
        doctored = RunRecord(
            content_hash=record.content_hash,
            result=dict(record.result, total_moves=-1),
            spec=record.spec,
        )
        assert store.put(doctored, replace=True) is True
        assert store.get(record.content_hash).result["total_moves"] == -1
        assert len(store) == 1
        # The shard stays append-only; the scan is last-wins, so the
        # replacement also survives reopening the store.
        assert RunStore(tmp_path / "s").get(record.content_hash) == doctored

    def test_concurrent_handles_same_process_no_index_corruption(self, tmp_path):
        # Several handles in one process share the pid shard; puts must
        # serialise on the process-wide shard lock so every handle's
        # index offsets point at the right bytes.
        import threading

        root = tmp_path / "s"
        handles = [RunStore(root) for _ in range(4)]
        records = []
        for seed in range(8):
            spec = _spec(seed=100 + seed)
            records.append((spec, run_experiment(spec).to_record(spec)))
        errors = []

        def hammer(handle, batch):
            try:
                for _, record in batch:
                    handle.put(record)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(handle, records[i::4]))
            for i, handle in enumerate(handles)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        fresh = RunStore(root)
        assert len(fresh) == 8
        for spec, record in records:
            assert fresh.get(spec.content_hash()) == record
        for handle in handles:
            handle.refresh()
            for spec, record in records:
                assert handle.get(spec.content_hash()) == record

    def test_replace_survives_reopen_across_shards(self, tmp_path):
        # The replacement may land in a *different* shard than the
        # original (another process replaced it).  Scan order is
        # lexicographic by shard name, so force the stale original to
        # be scanned last: the write stamp, not scan order, must win.
        root = tmp_path / "s"
        store = RunStore(root)
        spec = _spec(seed=43)
        record = run_experiment(spec).to_record(spec)
        store.put(record)
        original_shard = next(root.glob("shard-*.jsonl"))
        original_shard.rename(root / "shard-zzz.jsonl")  # sorts last
        doctored = RunRecord(
            content_hash=record.content_hash,
            result=dict(record.result, total_moves=-7),
            spec=record.spec,
        )
        RunStore(root).put(doctored, replace=True)  # fresh pid shard
        reopened = RunStore(root)
        assert len(reopened) == 1
        assert reopened.get(record.content_hash) == doctored

    def test_replace_wins_even_when_the_clock_steps_backwards(
        self, tmp_path, monkeypatch
    ):
        from repro.store import jsonl

        root = tmp_path / "s"
        store = RunStore(root)
        spec = _spec(seed=44)
        record = run_experiment(spec).to_record(spec)
        store.put(record)
        original_stamp = store._index.winner(record.content_hash, None).stamp
        # NTP stepped the clock back: naive stamping would rank the
        # replacement below the record it replaces.
        monkeypatch.setattr(jsonl.time, "time_ns", lambda: original_stamp - 10)
        doctored = RunRecord(
            content_hash=record.content_hash,
            result=dict(record.result, total_moves=-3),
            spec=record.spec,
        )
        assert store.put(doctored, replace=True) is True
        assert store.get(record.content_hash) == doctored
        assert RunStore(root).get(record.content_hash) == doctored

    def test_get_many_preserves_order_and_raises_on_absent(self, tmp_path):
        store = RunStore(tmp_path / "s")
        specs = [_spec(seed=80 + i) for i in range(4)]
        records = []
        for spec in specs:
            record = run_experiment(spec).to_record(spec)
            store.put(record)
            records.append(record)
        hashes = [spec.content_hash() for spec in specs]
        assert store.get_many(list(reversed(hashes))) == list(reversed(records))
        with pytest.raises(KeyError):
            store.get_many(hashes + ["0" * 64])

    def test_zero_schema_version_rejected(self):
        with pytest.raises(ConfigurationError, match="impossible schema version 0"):
            RunRecord.from_dict(
                {"schema_version": 0, "content_hash": "x", "result": {}}
            )

    def test_torn_tail_is_skipped_and_recovered(self, tmp_path):
        root = tmp_path / "s"
        store = RunStore(root)
        spec = _spec(seed=51)
        store.put(run_experiment(spec).to_record(spec))
        shard = next(root.glob("shard-*.jsonl"))
        with shard.open("ab") as handle:
            handle.write(b'{"content_hash": "torn')  # killed mid-append
        reopened = RunStore(root)
        assert len(reopened) == 1  # committed record survives
        assert spec.content_hash() in reopened
        # A new writer appending to the same shard must not merge its
        # record into the torn tail.
        other = _spec(seed=52)
        reopened.put(run_experiment(other).to_record(other))
        assert len(RunStore(root)) == 2

    def test_missing_store_without_create(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            RunStore(tmp_path / "absent", create=False)


class TestCachedRun:
    def test_miss_then_hit(self, tmp_path):
        store = RunStore(tmp_path / "s")
        spec = _spec(seed=61, scheduler="random")
        first, hit1 = cached_run(spec, store)
        second, hit2 = cached_run(spec, store)
        assert (hit1, hit2) == (False, True)
        assert first == second == run_experiment(spec)
        assert len(store) == 1

    def test_no_store_is_plain_run(self):
        spec = _spec(seed=62)
        result, hit = cached_run(spec, None)
        assert hit is False
        assert result == run_experiment(spec)


class TestSerializeVersionGate:
    """serialize.py is a thin versioned wrapper over the record schema."""

    def test_future_format_version_message_is_pinned(self):
        with pytest.raises(
            ConfigurationError,
            match=(
                r"results file uses format version 99, but this build "
                r"reads at most 1; upgrade repro to read it"
            ),
        ):
            results_from_json('{"format_version": 99, "results": []}')

    def test_missing_format_version_message_is_pinned(self):
        with pytest.raises(
            ConfigurationError,
            match=r"not a results file: format_version is None",
        ):
            results_from_json('{"results": []}')

    def test_non_integer_version_rejected(self):
        with pytest.raises(ConfigurationError, match="not a results file"):
            results_from_json('{"format_version": "2"}')
        with pytest.raises(ConfigurationError, match="not a results file"):
            results_from_json('[1, 2, 3]')

    def test_missing_results_list_rejected(self):
        with pytest.raises(ConfigurationError, match="no 'results' list"):
            results_from_json('{"format_version": 1}')
        with pytest.raises(ConfigurationError, match="no 'results' list"):
            results_from_json('{"format_version": 1, "results": 7}')

    def test_serialize_payload_is_the_record_payload(self):
        spec = _spec(seed=71)
        result = run_experiment(spec)
        from repro.experiments.serialize import results_to_json

        written = json.loads(results_to_json([result]))["results"][0]
        assert written == result.to_record(spec).result
