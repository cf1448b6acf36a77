"""Tests for the parallel sweep runner (determinism + pool identity)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.sweep import (
    SweepCell,
    SweepSpec,
    cell_seed,
    execute_sweep,
    expand_cells,
    rows_to_json,
    run_cell,
    summarize_rows,
)

SMALL_SPEC = SweepSpec(
    algorithms=("known_k_full", "unknown"),
    grid=((24, 4), (36, 6)),
    schedulers=("sync", "random"),
    trials=2,
    base_seed=11,
)


class TestCellSeeding:
    def test_seed_is_stable_across_calls(self):
        a = cell_seed(0, "known_k_full", 64, 8, "random", 3)
        b = cell_seed(0, "known_k_full", 64, 8, "random", 3)
        assert a == b

    def test_seed_depends_on_every_coordinate(self):
        base = cell_seed(0, "known_k_full", 64, 8, "random", 3)
        assert base != cell_seed(1, "known_k_full", 64, 8, "random", 3)
        assert base != cell_seed(0, "unknown", 64, 8, "random", 3)
        assert base != cell_seed(0, "known_k_full", 128, 8, "random", 3)
        assert base != cell_seed(0, "known_k_full", 64, 16, "random", 3)
        assert base != cell_seed(0, "known_k_full", 64, 8, "sync", 3)
        assert base != cell_seed(0, "known_k_full", 64, 8, "random", 4)

    def test_seed_is_pinned(self):
        # The exact value is part of the trajectory-tracking contract:
        # changing the derivation silently invalidates archived sweeps.
        assert cell_seed(0, "known_k_full", 64, 8, "sync", 0) == (
            int.from_bytes(
                __import__("hashlib")
                .sha256(b"0|known_k_full|64x8|sync|0")
                .digest()[:8],
                "big",
            )
            & 0x7FFF_FFFF_FFFF_FFFF
        )


class TestSpec:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(algorithms=("nope",), grid=((24, 4),))

    def test_rejects_unknown_scheduler(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(
                algorithms=("known_k_full",), grid=((24, 4),), schedulers=("nope",)
            )

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(algorithms=("known_k_full",), grid=((24, 4),), trials=0)

    @pytest.mark.parametrize(
        "entry",
        [(4, 8), (0, 1), (-3, 2), (5, 0), (True, 2), (4, False), (4.0, 2),
         (4,), (4, 2, 1), "4x2"],
    )
    def test_rejects_bad_grid_entries_at_construction(self, entry):
        with pytest.raises(ConfigurationError, match="sweep grid entry") as raised:
            SweepSpec(algorithms=("known_k_full",), grid=((24, 4), entry))
        assert repr(entry) in str(raised.value)

    def test_accepts_k_equal_one_and_k_equal_n(self):
        spec = SweepSpec(algorithms=("known_k_full",), grid=((1, 1), (6, 6), (6, 1)))
        assert [(c.ring_size, c.agent_count) for c in expand_cells(spec)] == [
            (1, 1), (6, 6), (6, 1),
        ]

    def test_bad_grid_from_json_is_rejected_before_any_cell(self):
        document = dict(SMALL_SPEC.to_dict(), grid=[[24, 4], [4, 8]])
        with pytest.raises(ConfigurationError, match=r"entry \(4, 8\)"):
            SweepSpec.from_dict(document)

    def test_expand_order_is_canonical(self):
        cells = expand_cells(SMALL_SPEC)
        assert len(cells) == 2 * 2 * 2 * 2
        coords = [
            (c.algorithm, c.ring_size, c.agent_count, c.scheduler, c.trial)
            for c in cells
        ]
        assert coords == sorted(
            coords,
            key=lambda c: (
                SMALL_SPEC.algorithms.index(c[0]),
                SMALL_SPEC.grid.index((c[1], c[2])),
                SMALL_SPEC.schedulers.index(c[3]),
                c[4],
            ),
        )


class TestRunCell:
    def test_cell_is_self_contained_and_deterministic(self):
        cell = SweepCell(
            algorithm="known_k_full",
            ring_size=24,
            agent_count=4,
            scheduler="random",
            trial=0,
            seed=cell_seed(5, "known_k_full", 24, 4, "random", 0),
        )
        first = run_cell(cell)
        second = run_cell(cell)
        assert first == second
        assert first["uniform"] is True
        assert first["scheduler"] == "random"
        assert first["seed"] == cell.seed

    def test_async_cells_report_no_ideal_time(self):
        cell = SweepCell(
            algorithm="known_k_full",
            ring_size=24,
            agent_count=4,
            scheduler="burst",
            trial=0,
            seed=1234,
        )
        assert run_cell(cell)["ideal_time"] is None


class TestRunSweep:
    def test_serial_and_parallel_rows_are_identical(self):
        serial = execute_sweep(SMALL_SPEC, processes=1).rows
        parallel = execute_sweep(SMALL_SPEC, processes=2).rows
        assert serial == parallel
        assert len(serial) == len(expand_cells(SMALL_SPEC))
        assert all(row["uniform"] for row in serial)

    def test_rows_follow_cell_order(self):
        rows = execute_sweep(SMALL_SPEC, processes=1).rows
        cells = expand_cells(SMALL_SPEC)
        for row, cell in zip(rows, cells):
            assert row["algorithm"] == cell.algorithm
            assert row["n"] == cell.ring_size
            assert row["k"] == cell.agent_count
            assert row["scheduler"] == cell.scheduler
            assert row["trial"] == cell.trial
            assert row["seed"] == cell.seed

    def test_summary_aggregates_trials(self):
        rows = execute_sweep(SMALL_SPEC, processes=1).rows
        summary = summarize_rows(rows)
        assert len(summary) == 2 * 2 * 2  # trials collapsed
        for entry in summary:
            assert entry["trials"] == SMALL_SPEC.trials
            assert entry["uniform"] is True

    def test_json_round_trip(self):
        rows = execute_sweep(SMALL_SPEC, processes=1).rows
        payload = json.loads(rows_to_json(SMALL_SPEC, rows))
        assert payload["spec"]["trials"] == SMALL_SPEC.trials
        assert payload["spec"]["algorithms"] == list(SMALL_SPEC.algorithms)
        assert len(payload["rows"]) == len(rows)
        assert payload["rows"][0]["algorithm"] == rows[0]["algorithm"]
