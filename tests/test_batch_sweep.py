"""The sweep backend knob end-to-end.

The wiring contract: ``backend="batch"`` changes *how* cells are
computed, never *what* comes out — rows, archived records, content
hashes and :meth:`RunStore.digest` are all byte-identical to the
object path.  Only the cells :func:`batch_supported` accepts reach the
batch engine; every other cell of the grid runs on the object pool.
The hypothesis property at the bottom is the strongest form: for
arbitrary small sweep specs, the two backends produce stores with
equal digests (record-for-record identical archives).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.batch as batch
from repro.campaign.spec import CampaignSpec
from repro.errors import ConfigurationError
from repro.experiments.sweep import SweepSpec, execute_sweep
from repro.store import RunStore


def _sweep(**overrides) -> SweepSpec:
    defaults = dict(
        algorithms=("known_k_full", "unknown"),
        grid=((16, 4), (12, 3)),
        schedulers=("sync", "random", "burst:burst=3"),
        trials=2,
        base_seed=5,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError):
        execute_sweep(_sweep(), processes=1, backend="vectorized")


def test_storeless_rows_identical_across_backends():
    spec = _sweep()
    object_rows = execute_sweep(spec, processes=1).rows
    batch_rows = execute_sweep(spec, processes=1, backend="batch").rows
    assert object_rows == batch_rows


def test_store_digests_identical_across_backends(tmp_path):
    spec = _sweep()
    object_store = RunStore(str(tmp_path / "object"))
    batch_store = RunStore(str(tmp_path / "batch"))
    object_outcome = execute_sweep(spec, processes=1, store=object_store)
    batch_outcome = execute_sweep(
        spec, processes=1, store=batch_store, backend="batch",
        validate_backend=True,
    )
    assert object_outcome.rows == batch_outcome.rows
    assert object_store.digest() == batch_store.digest()


def test_batch_backend_resumes_from_object_store_and_back(tmp_path):
    # Cross-backend resume: records archived by one backend are cache
    # hits for the other, in both directions.
    spec = _sweep(trials=1)
    store = RunStore(str(tmp_path / "shared"))
    first = execute_sweep(spec, processes=1, store=store)
    assert first.executed == first.total
    warm = execute_sweep(spec, processes=1, store=store, backend="batch")
    assert warm.executed == 0 and warm.cached == warm.total
    assert warm.rows == first.rows

    wider = _sweep(trials=2)  # trial 0 cached, trial 1 fresh per cell
    partial = execute_sweep(
        wider, processes=1, store=store, backend="batch"
    )
    assert partial.cached == first.total
    assert partial.executed == partial.total - first.total
    rewarm = execute_sweep(wider, processes=1, store=store)
    assert rewarm.executed == 0
    assert rewarm.rows == partial.rows


def test_batch_backend_progress_counts_every_cell():
    seen = []
    spec = _sweep(trials=1)
    execute_sweep(
        spec,
        processes=1,
        backend="batch",
        progress=seen.append,
    )
    total = len(spec.algorithms) * len(spec.grid) * len(spec.schedulers)
    assert seen == [
        {"done": i, "pending": total, "total": total}
        for i in range(1, total + 1)
    ]


def test_parallel_mixed_grid_identical_across_backends(tmp_path):
    # Full and unknown cells under sync and random: the batch groups run
    # in the parent while the declined cells go through a 2-process pool.
    spec = _sweep(schedulers=("sync", "random"))
    object_store = RunStore(str(tmp_path / "object"))
    batch_store = RunStore(str(tmp_path / "batch"))
    object_outcome = execute_sweep(spec, processes=2, store=object_store)
    batch_outcome = execute_sweep(
        spec, processes=2, store=batch_store, backend="batch"
    )
    assert object_outcome.rows == batch_outcome.rows
    assert object_store.digest() == batch_store.digest()


def test_only_full_kernels_under_sync_reach_the_batch_engine(monkeypatch):
    batched = []
    run_batch = batch.run_batch

    def recording_run_batch(specs, **kwargs):
        batched.extend((spec.algorithm, spec.scheduler) for spec in specs)
        return run_batch(specs, **kwargs)

    monkeypatch.setattr(batch, "run_batch", recording_run_batch)
    spec = _sweep(algorithms=("known_k_full", "known_n_full", "unknown"))
    outcome = execute_sweep(spec, processes=1, backend="batch")
    assert outcome.executed == outcome.total
    # 2 full algorithms x 2 sizes x sync x 2 trials.
    assert sorted(set(batched)) == [("known_k_full", "sync"), ("known_n_full", "sync")]
    assert len(batched) == 8


#: Every cell the batch backend used to run and now declines: the
#: declined algorithms under every family, and the full kernels under
#: every non-sync family.
_DECLINED_CELLS = [
    (algorithm, scheduler)
    for algorithm in ("known_k_full", "known_n_full", "known_k_logspace", "unknown")
    for scheduler in (
        "sync",
        "random",
        "burst:burst=3",
        "chaos:epoch=5",
        "laggard:victims=0,patience=4",
    )
    if not (algorithm.endswith("_full") and scheduler == "sync")
]


@pytest.mark.parametrize("algorithm,scheduler", _DECLINED_CELLS)
def test_declined_cell_runs_on_object_engine_with_identical_store(
    tmp_path, monkeypatch, algorithm, scheduler
):
    def refusing_run_batch(specs, **kwargs):
        raise AssertionError(f"{algorithm} under {scheduler} reached run_batch")

    spec = _sweep(
        algorithms=(algorithm,),
        grid=((16, 4), (6, 6)),
        schedulers=(scheduler,),
    )
    object_store = RunStore(str(tmp_path / "object"))
    object_outcome = execute_sweep(spec, processes=1, store=object_store)
    monkeypatch.setattr(batch, "run_batch", refusing_run_batch)
    batch_store = RunStore(str(tmp_path / "batch"))
    batch_outcome = execute_sweep(
        spec, processes=1, store=batch_store, backend="batch"
    )
    assert batch_outcome.executed == batch_outcome.total == 4
    assert object_outcome.rows == batch_outcome.rows
    assert object_store.digest() == batch_store.digest()


#: A campaign spec serialised while campaigns still had a ``backend``
#: fleet knob, and the work hash its ledger was named by then.
_LEGACY_CAMPAIGN = (
    '{"fleet": {"backend": "batch", "backoff_base": 0.5, "backoff_cap": 30.0, '
    '"lease_ttl": 10.0, "max_retries": 3, "shards": 4, "unit_timeout": 120.0, '
    '"workers": 3}, "fuzz": null, "kind": "sweep", "sweep": {"algorithms": '
    '["known_k_full", "unknown"], "base_seed": 5, "grid": [[16, 4], [12, 3]], '
    '"max_steps": null, "schedulers": ["sync", "random", "burst:burst=3"], '
    '"trials": 1}}'
)
_LEGACY_WORK_HASH = "773eec5271f3c38c8d0e1f1f466d0b55b8ea6e0c081df1eff2381e6d003b830e"


def test_legacy_campaign_spec_with_backend_keeps_its_work_hash():
    spec = CampaignSpec.from_json(_LEGACY_CAMPAIGN)
    assert spec.work_hash() == _LEGACY_WORK_HASH
    assert spec.workers == 3
    assert spec == CampaignSpec(kind="sweep", sweep=_sweep(trials=1), workers=3)
    assert "backend" not in spec.to_dict()["fleet"]
    # Campaigns that never set the knob keep their content hash too.
    assert spec.content_hash() == (
        "febb91674e57c827e250be000f14636be69993bcf5cac1a76b31c9c15122b8cc"
    )


@settings(max_examples=10, deadline=None)
@given(
    algorithm=st.sampled_from(
        ["known_k_full", "known_n_full", "known_k_logspace", "unknown"]
    ),
    n=st.integers(min_value=4, max_value=24),
    k=st.integers(min_value=1, max_value=6),
    scheduler=st.sampled_from(
        ["sync", "random", "chaos:epoch=5", "laggard:victims=0,patience=4"]
    ),
    trials=st.integers(min_value=1, max_value=3),
    base_seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_backend_digest_identity(
    tmp_path_factory, algorithm, n, k, scheduler, trials, base_seed
):
    k = min(k, n)
    spec = SweepSpec(
        algorithms=(algorithm,),
        grid=((n, k),),
        schedulers=(scheduler,),
        trials=trials,
        base_seed=base_seed,
    )
    root = tmp_path_factory.mktemp("digest")
    object_store = RunStore(str(root / "object"))
    batch_store = RunStore(str(root / "batch"))
    execute_sweep(spec, processes=1, store=object_store)
    execute_sweep(spec, processes=1, store=batch_store, backend="batch")
    assert object_store.digest() == batch_store.digest()
