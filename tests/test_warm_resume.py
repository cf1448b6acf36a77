"""Warm sweep resume: cell hashes from one template, rows from payloads.

A fully warm ``execute_sweep`` derives every cell's store key with
:func:`repro.experiments.sweep.cell_hashes` and shapes every row with
:func:`repro.store.records.result_row`, without building an
``ExperimentSpec`` or a ``RunResult`` per cell.  These tests pin both
against the slow definitions they replace: each derived hash equals the
cell's ``ExperimentSpec.content_hash()``, each payload row equals the
row a live ``RunResult`` gives, and a malformed record still fails with
the message the ``RunResult`` rebuild gave.
"""

from __future__ import annotations

import json
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_impls import reference_row
from repro.errors import ConfigurationError
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import (
    SweepCell,
    SweepSpec,
    cell_hashes,
    cell_row,
    execute_sweep,
    expand_cells,
    rows_from_store,
)
from repro.registry import algorithm_names
from repro.ring.faults import LinkSpec
from repro.ring.placement import (
    equidistant_placement,
    periodic_placement,
    random_aperiodic_block,
    random_placement,
)
from repro.spec import ExperimentSpec
from repro.store import RunRecord, RunStore, result_row, result_to_payload

#: Scheduler spellings: canonical names, stray whitespace, parameters,
#: parameter aliases and argument orders that canonicalise differently.
SPELLINGS = (
    "sync",
    " sync ",
    "random",
    "random:seed=3",
    "burst:burst=7",
    "chaos:seed=9,epoch=3",
    "laggard",
    "laggard:patience=5",
    " laggard:victim=1 , patience=5 ",
    "laggard:victims=0-2,seed=4",
)


@st.composite
def grids(draw):
    """1-3 distinct (n, k) pairs, with k == 1 and k == n among the draws."""
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 300))
        k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
        pairs.append((n, k))
    return tuple(dict.fromkeys(pairs))


links = st.one_of(
    st.none(),
    st.just(LinkSpec()),  # inactive: normalised to None
    st.builds(
        LinkSpec,
        delay=st.integers(0, 3),
        loss=st.integers(0, 2),
        dup=st.integers(0, 2),
        seed=st.integers(0, 2**31),
    ),
)

sweep_specs = st.builds(
    SweepSpec,
    algorithms=st.lists(
        st.sampled_from(algorithm_names()), min_size=1, max_size=4, unique=True
    ).map(tuple),
    grid=grids(),
    schedulers=st.lists(
        st.sampled_from(SPELLINGS), min_size=1, max_size=3, unique=True
    ).map(tuple),
    trials=st.integers(1, 3),
    base_seed=st.one_of(
        st.just(0), st.integers(2**63 - 16, 2**63 + 16), st.integers(0, 2**40)
    ),
    max_steps=st.one_of(st.none(), st.integers(1, 10**9)),
    links=links,
)


class TestCellHashes:
    @settings(max_examples=120)
    @given(spec=sweep_specs)
    def test_every_derived_hash_is_the_cell_spec_hash(self, spec):
        cells = expand_cells(spec)
        assert cell_hashes(cells) == [
            cell.to_experiment_spec().content_hash() for cell in cells
        ]

    def test_links_reach_the_hash(self):
        reliable = SweepSpec(algorithms=("unknown",), grid=((12, 3),))
        faulty = SweepSpec(
            algorithms=("unknown",), grid=((12, 3),),
            links=LinkSpec(delay=2, loss=1, seed=7),
        )
        assert cell_hashes(expand_cells(reliable)) != cell_hashes(
            expand_cells(faulty)
        )

    def test_no_cells_no_hashes(self):
        assert cell_hashes([]) == []

    def test_cells_of_two_sweeps_are_refused(self):
        short = expand_cells(
            SweepSpec(algorithms=("unknown",), grid=((12, 3),), max_steps=50)
        )
        other = expand_cells(SweepSpec(algorithms=("unknown",), grid=((12, 3),)))
        with pytest.raises(ValueError, match="one sweep"):
            cell_hashes(short + other)


def _placements(rng: random.Random):
    """A random, an equidistant and a periodic (l > 1) placement."""
    n = rng.randint(4, 24)
    k = rng.randint(1, n)
    block = random_aperiodic_block(rng.randint(2, 3), 3, rng)
    return [
        random_placement(n, k, rng),
        equidistant_placement(n, k),
        periodic_placement(block, rng.randint(2, 3)),
    ]


class TestPayloadRows:
    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 2**32),
        algorithm=st.sampled_from(algorithm_names()),
        scheduler=st.sampled_from(("sync", "random", "burst", "laggard")),
    )
    def test_payload_row_is_the_live_row(self, seed, algorithm, scheduler):
        for placement in _placements(random.Random(seed)):
            spec = ExperimentSpec.for_placement(
                algorithm, placement, scheduler=scheduler, scheduler_seed=seed
            )
            result = run_experiment(spec)
            stored = json.loads(json.dumps(result.to_record(spec).result))
            expected = reference_row(result)
            assert result.row() == expected
            assert result_row(stored) == expected

    def test_periodic_placements_report_their_symmetry_degree(self):
        placement = periodic_placement((1, 2, 3), 2)
        spec = ExperimentSpec.for_placement("known_k_full", placement)
        assert result_row(result_to_payload(run_experiment(spec)))["l"] == 2

    def test_faulty_link_runs_with_lost_agents(self):
        lost = 0
        for seed in range(8):
            cell = SweepCell(
                algorithm="unknown", ring_size=10, agent_count=3,
                scheduler="random", trial=0, seed=seed,
                links=LinkSpec(delay=1, loss=1, seed=0),
            )
            spec = cell.to_experiment_spec()
            result = run_experiment(spec)
            lost += len(result.final_positions) < cell.agent_count
            payload = json.loads(json.dumps(result.to_record(spec).result))
            assert result_row(payload) == reference_row(result)
            row = cell_row(cell, payload)
            assert row["k"] == 3 and row["trial"] == 0 and row["seed"] == seed
        assert lost, "no seed lost an agent"


_SWEEP = SweepSpec(
    algorithms=("known_k_full",), grid=((12, 3),), schedulers=("sync", "random")
)


@pytest.fixture
def warm_store(tmp_path):
    """A store holding every cell of ``_SWEEP``, and its first record."""
    store = RunStore(tmp_path / "store")
    execute_sweep(_SWEEP, processes=1, store=store)
    first = store.get(cell_hashes(expand_cells(_SWEEP))[0])
    return store, first


def _corrupt(store, record, mutate):
    result = json.loads(json.dumps(record.result))
    mutate(result)
    store.put(
        RunRecord(content_hash=record.content_hash, result=result, spec=record.spec),
        replace=True,
    )


class TestMalformedRecordsOnTheWarmPath:
    """The messages are the ones the ``RunResult`` rebuild raised."""

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (
                lambda r: r["report"].pop("ok"),
                "malformed result record: missing key 'ok'",
            ),
            (
                lambda r: r.update(homes=[r["homes"][0]] * 3),
                "home nodes are not distinct",
            ),
            (lambda r: r.update(ring_size=0), "ring size must be positive, got 0"),
            (lambda r: r.update(report=None), "malformed result record: missing key"),
            (lambda r: r.update(homes=[]), "a placement needs at least one agent"),
        ],
        ids=["missing-ok", "duplicate-homes", "ring-size-0", "report-null", "no-homes"],
    )
    def test_raises_with_the_rebuild_message(self, warm_store, mutate, message):
        store, record = warm_store
        _corrupt(store, record, mutate)
        with pytest.raises(ConfigurationError, match=message):
            execute_sweep(_SWEEP, processes=1, store=store)
        with pytest.raises(ConfigurationError, match=message):
            rows_from_store(store, _SWEEP)
