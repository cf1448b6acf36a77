"""Store-backed sweep orchestration: concurrency, checkpointing, resume.

The acceptance contract: re-running a completed sweep with resume
executes zero cells while producing byte-identical rows, and a sweep
killed mid-flight resumes losslessly — the final store equals the one a
clean serial run produces.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.experiments.sweep import (
    SweepSpec,
    cell_row,
    execute_sweep,
    expand_cells,
    rows_from_store,
    summarize_rows,
)
from repro.errors import ConfigurationError
from repro.experiments.runner import run_experiment
from repro.spec import ExperimentSpec, PlacementSpec
from repro.store import RunStore, result_to_payload

SPEC = SweepSpec(
    algorithms=("known_k_full", "unknown"),
    grid=((20, 4), (24, 4)),
    schedulers=("sync", "random"),
    trials=2,
    base_seed=17,
)  # 16 cells


@pytest.fixture(scope="module")
def baseline_rows():
    """Rows of a clean, storeless serial run (the ground truth)."""
    return execute_sweep(SPEC, processes=1).rows


def _write_one(task):
    """Top-level pool worker: archive one spec into a shared store dir."""
    root, seed = task
    spec = ExperimentSpec(
        algorithm="known_k_full",
        placement=PlacementSpec(
            kind="random", ring_size=16, agent_count=3, seed=seed
        ),
    )
    store = RunStore(root)
    store.put(run_experiment(spec).to_record(spec))
    return spec.content_hash()


class TestConcurrentWrites:
    def test_parallel_pool_writes_no_torn_or_duplicate_records(
        self, tmp_path, baseline_rows
    ):
        root = tmp_path / "store"
        store = RunStore(root)
        outcome = execute_sweep(SPEC, processes=4, store=store)
        assert outcome.executed == len(expand_cells(SPEC))
        assert outcome.rows == baseline_rows
        # Every shard line parses, and hashes are unique across lines.
        lines = []
        for shard in sorted(root.glob("shard-*.jsonl")):
            raw = shard.read_bytes()
            assert raw.endswith(b"\n"), "torn final record"
            lines.extend(raw.decode("utf-8").splitlines())
        hashes = [json.loads(line)["content_hash"] for line in lines]
        assert len(hashes) == len(set(hashes)) == len(expand_cells(SPEC))
        assert sorted(hashes) == sorted(RunStore(root).hashes())

    def test_many_processes_one_store_directory(self, tmp_path):
        # Independent writer *processes* (not pool workers returning to a
        # single writing parent): each opens the store itself and appends
        # to its own pid shard.
        root = tmp_path / "store"
        tasks = [(str(root), seed) for seed in range(12)]
        with multiprocessing.Pool(4) as pool:
            hashes = pool.map(_write_one, tasks)
        assert len(set(hashes)) == 12
        store = RunStore(root)
        assert len(store) == 12
        assert sorted(store.hashes()) == sorted(hashes)
        for record in store.iter_records():
            assert record.result["report"]["ok"] is True


class TestResume:
    def test_completed_sweep_resumes_with_zero_executions(
        self, tmp_path, baseline_rows
    ):
        store = RunStore(tmp_path / "store")
        first = execute_sweep(SPEC, processes=2, store=store)
        second = execute_sweep(SPEC, processes=2, store=store)
        assert first.executed == len(expand_cells(SPEC)) and first.cached == 0
        assert second.executed == 0
        assert second.cached == len(expand_cells(SPEC))
        # Byte-identical rows: cached and computed paths shape rows
        # through the same helper.
        assert json.dumps(second.rows) == json.dumps(baseline_rows)

    def test_partial_store_executes_only_missing_cells(
        self, tmp_path, baseline_rows
    ):
        cells = expand_cells(SPEC)
        prefilled = RunStore(tmp_path / "store")
        for cell in cells[::2]:  # archive every other cell
            spec = cell.to_experiment_spec()
            prefilled.put(run_experiment(spec).to_record(spec))
        outcome = execute_sweep(SPEC, processes=2, store=prefilled)
        assert outcome.cached == len(cells[::2])
        assert outcome.executed == len(cells) - len(cells[::2])
        assert outcome.rows == baseline_rows

    def test_killed_sweep_resumes_losslessly(self, tmp_path, baseline_rows):
        root = tmp_path / "store"
        store = RunStore(root)

        class Killed(Exception):
            pass

        def kill_after_five(update):
            if update["done"] >= 5:
                raise Killed

        with pytest.raises(Killed):
            execute_sweep(SPEC, processes=1, store=store, progress=kill_after_five)
        checkpoint = RunStore(root)
        archived = len(checkpoint)
        assert 5 <= archived < len(expand_cells(SPEC))

        resumed = execute_sweep(SPEC, processes=2, store=checkpoint)
        assert resumed.cached == archived
        assert resumed.executed == len(expand_cells(SPEC)) - archived
        assert resumed.rows == baseline_rows

        # Final store equals the one a clean serial run produces.
        clean = RunStore(tmp_path / "clean")
        execute_sweep(SPEC, processes=1, store=clean)
        assert sorted(checkpoint.hashes()) == sorted(clean.hashes())
        by_hash = {r.content_hash: r.result for r in checkpoint.iter_records()}
        for record in clean.iter_records():
            assert by_hash[record.content_hash] == record.result

    def test_no_resume_recomputes_everything(self, tmp_path):
        store = RunStore(tmp_path / "store")
        execute_sweep(SPEC, processes=2, store=store)
        outcome = execute_sweep(SPEC, processes=2, store=store, resume=False)
        assert outcome.executed == len(expand_cells(SPEC))
        assert outcome.cached == 0
        assert len(store) == len(expand_cells(SPEC))  # still content-addressed

    def test_no_resume_refreshes_stale_archived_records(self, tmp_path):
        # A --no-resume run recomputes on purpose (say, after a
        # simulation fix); the archive must end up agreeing with the
        # rows the run printed, not keep serving pre-fix numbers.
        from repro.store import RunRecord

        store = RunStore(tmp_path / "store")
        execute_sweep(SPEC, processes=1, store=store)
        victim_hash = store.hashes()[0]
        genuine = store.get(victim_hash)
        store.put(
            RunRecord(
                content_hash=victim_hash,
                result=dict(genuine.result, total_moves=-1),
                spec=genuine.spec,
            ),
            replace=True,
        )
        assert store.get(victim_hash).result["total_moves"] == -1
        execute_sweep(SPEC, processes=1, store=store, resume=False)
        assert store.get(victim_hash).result == genuine.result
        assert RunStore(tmp_path / "store").get(victim_hash).result == genuine.result

    def test_overlapping_sweep_pays_only_new_cells(self, tmp_path):
        store = RunStore(tmp_path / "store")
        execute_sweep(SPEC, processes=2, store=store)
        widened = SweepSpec(
            algorithms=SPEC.algorithms,
            grid=SPEC.grid + ((28, 4),),
            schedulers=SPEC.schedulers,
            trials=SPEC.trials,
            base_seed=SPEC.base_seed,
        )
        outcome = execute_sweep(widened, processes=2, store=store)
        new_cells = len(expand_cells(widened)) - len(expand_cells(SPEC))
        assert outcome.cached == len(expand_cells(SPEC))
        assert outcome.executed == new_cells


class TestStoreQueriesOverRows:
    def test_rows_from_store_matches_live_sweep(self, tmp_path, baseline_rows):
        store = RunStore(tmp_path / "store")
        execute_sweep(SPEC, processes=2, store=store)
        assert rows_from_store(store, SPEC) == baseline_rows
        assert summarize_rows(rows_from_store(store, SPEC)) == summarize_rows(
            baseline_rows
        )

    def test_rows_from_store_strict_names_missing_cells(self, tmp_path):
        store = RunStore(tmp_path / "store")
        assert rows_from_store(store, SPEC) == []
        with pytest.raises(ConfigurationError, match="missing 16"):
            rows_from_store(store, SPEC, strict=True)

    def test_cell_row_is_the_single_row_shape(self, baseline_rows):
        cells = expand_cells(SPEC)
        result = run_experiment(cells[0].to_experiment_spec())
        rebuilt = cell_row(cells[0], result_to_payload(result))
        assert rebuilt == baseline_rows[0]


class TestCliStoreCommands:
    def test_run_store_hits_on_second_invocation(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "store")
        flags = ["run", "--n", "20", "--k", "4", "--store", root]
        assert main(flags) == 0
        first = capsys.readouterr().out
        assert "archived run" in first
        assert main(flags) == 0
        second = capsys.readouterr().out
        assert "cache hit" in second and "0 simulations executed" in second
        # The rendered result row is identical either way.
        assert first.splitlines()[-1] == second.splitlines()[-1]

    def test_psweep_store_resume_reports_full_cache(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "store")
        flags = [
            "psweep", "--algorithms", "known_k_full", "--grid", "20x4",
            "--schedulers", "sync,random", "--trials", "2",
            "--jobs", "2", "--store", root,
        ]
        assert main(flags) == 0
        assert "store: 4 executed, 0 cached" in capsys.readouterr().out
        assert main(flags) == 0
        assert "store: 0 executed, 4 cached" in capsys.readouterr().out

    def test_query_filters_and_json(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "store")
        assert main([
            "psweep", "--algorithms", "known_k_full,unknown",
            "--grid", "20x4", "--schedulers", "sync", "--store", root,
        ]) == 0
        capsys.readouterr()
        assert main(["query", "--store", root, "--algorithm", "unknown"]) == 0
        output = capsys.readouterr().out
        assert "unknown" in output and "1 of 2 archived runs matched" in output
        assert main(["query", "--store", root, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert all(record["schema_version"] == 1 for record in payload)

    def test_query_missing_store_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["query", "--store", str(tmp_path / "absent")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err


class TestStoreBackedAggregation:
    def test_aggregate_trials_store_round_trip(self, tmp_path):
        from repro.experiments.statistics import aggregate_trials

        store = RunStore(tmp_path / "store")
        cold = aggregate_trials(
            "known_k_full", 20, 4, trials=3, seed=5, store=store
        )
        assert len(store) == 3
        warm = aggregate_trials(
            "known_k_full", 20, 4, trials=3, seed=5, store=store
        )
        assert len(store) == 3  # nothing new simulated
        assert warm.total_moves == cold.total_moves
        assert warm.results == cold.results
        plain = aggregate_trials("known_k_full", 20, 4, trials=3, seed=5)
        assert plain.total_moves == cold.total_moves

    def test_aggregate_trials_scheduler_spec_samples_async(self):
        from repro.experiments.statistics import aggregate_trials

        aggregate = aggregate_trials(
            "known_k_full", 20, 4, trials=2, scheduler_spec="random"
        )
        assert aggregate.all_uniform
        assert aggregate.ideal_time is None  # async runs do not report time


class TestStoreBackedReport:
    def test_report_from_store_matches_fresh_report(self, tmp_path):
        from repro.experiments.report import generate_report

        store = RunStore(tmp_path / "store")
        fresh = generate_report("quick")
        archived = generate_report("quick", store=store)
        assert archived == fresh
        records_after_first = len(store)
        assert records_after_first > 0
        warm = generate_report("quick", store=store)
        assert warm == fresh
        assert len(store) == records_after_first  # nothing re-archived
