"""The one pool executor (``repro.executor``) and ^C through its callers.

``completed`` yields every result once at any ``jobs``; sweeps, fuzz
campaigns and mc grids reject ``jobs < 1`` through it; and a
``KeyboardInterrupt`` becomes a ``CampaignInterrupted`` carrying the
finished work, in process and (``slow``) as SIGINT to a CLI's process
group.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, ChaosPlan
from repro.errors import CampaignInterrupted
from repro.executor import completed
from repro.experiments.sweep import SweepSpec, execute_sweep
from repro.fuzz import FuzzSpec, ScheduleFuzzer, fuzz_parallel
from repro.jobs import KINDS
from repro.mc import check_placements
from repro.ring.placement import Placement
from repro.spec import PlacementSpec
from repro.store import RunStore

SRC = str(Path(__file__).resolve().parents[1] / "src")

SWEEP = SweepSpec(algorithms=("known_k_full",), grid=((6, 2), (8, 2)))
PLACEMENTS = [Placement(6, homes=(0, 1)), Placement(6, homes=(0, 2))]


def _square(value: int) -> int:
    return value * value


def _wake_race(**overrides) -> FuzzSpec:
    options = dict(
        algorithm="wake_race",
        placement=PlacementSpec(kind="random", ring_size=16, agent_count=4, seed=0),
        budget=120,
        placements=2,
        seed=0,
    )
    options.update(overrides)
    return FuzzSpec(**options)


@pytest.mark.parametrize("jobs", [1, 2, 9])
def test_completed_yields_every_result_once(jobs):
    items = list(range(7))
    assert sorted(completed(_square, items, jobs)) == [i * i for i in items]


def test_completed_runs_in_order_in_process_at_jobs_1():
    seen = []
    results = list(completed(lambda item: seen.append(item) or item, [3, 1, 2], 1))
    assert results == seen == [3, 1, 2]  # a lambda: no pool to pickle it for


def test_completed_rejects_jobs_below_one_at_the_call():
    with pytest.raises(ValueError, match="jobs >= 1"):
        completed(_square, [1, 2], 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: execute_sweep(SWEEP, processes=0),
        lambda: fuzz_parallel(_wake_race(budget=4), 0),
        lambda: check_placements("unknown", PLACEMENTS, jobs=0),
    ],
    ids=["sweep", "fuzz", "mc"],
)
def test_callers_reject_jobs_below_one(call):
    with pytest.raises(ValueError, match="jobs >= 1"):
        call()


class TestInterruptInProcess:
    def test_fuzz_at_jobs_1_archives_failures_found_before_the_interrupt(
        self, tmp_path, monkeypatch
    ):
        execute = ScheduleFuzzer._execute

        def interrupt_after_a_failure(fuzzer, *args, **kwargs):
            if fuzzer.failures:
                raise KeyboardInterrupt
            return execute(fuzzer, *args, **kwargs)

        monkeypatch.setattr(ScheduleFuzzer, "_execute", interrupt_after_a_failure)
        kind = KINDS["fuzz"]
        options = kind.check_options({"keep_going": True})
        with pytest.raises(CampaignInterrupted) as info:
            kind.run(_wake_race(), options, store_root=str(tmp_path))
        partial = info.value.outcome
        assert not partial.complete and len(partial.failures) == 1
        assert f"{partial.runs} of 120 runs finished" in str(info.value)
        archived = RunStore(tmp_path).failures
        assert archived.hashes() == [partial.failures[0].content_hash]

    def test_fleet_fuzz_shard_still_dies_on_keyboard_interrupt(self, monkeypatch):
        from repro.campaign.worker import _execute_fuzz_shard

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(ScheduleFuzzer, "_execute", interrupt)
        (unit,) = CampaignSpec(
            kind="fuzz", fuzz=_wake_race(), shards=1
        ).build_units()
        with pytest.raises(KeyboardInterrupt):  # not converted
            _execute_fuzz_shard(
                unit, 0, None, ChaosPlan(), None,
                outbox=None, worker_id=0, options={},
            )

    @pytest.mark.parametrize("store", [False, True], ids=["storeless", "store"])
    def test_mc_keeps_finished_placements(self, tmp_path, monkeypatch, store):
        import repro.mc.parallel as parallel

        check = parallel.check_frontier
        calls = []

        def interrupt_second(algorithm, placement, **options):
            calls.append(placement)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return check(algorithm, placement, **options)

        monkeypatch.setattr(parallel, "check_frontier", interrupt_second)
        store_root = str(tmp_path) if store else None
        with pytest.raises(CampaignInterrupted) as info:
            check_placements("unknown", PLACEMENTS, store_root=store_root)
        (result,) = info.value.outcome
        assert result.to_dict() == check("unknown", PLACEMENTS[0]).to_dict()
        assert "1 of 2 placements checked" in str(info.value)
        if store:
            assert f"--store {tmp_path} --resume" in info.value.resume_hint
        else:
            assert "re-run with --store" in info.value.resume_hint


def _first_record(store: Path) -> bool:
    return any(shard.stat().st_size for shard in store.glob("*.jsonl"))


@pytest.mark.slow
@pytest.mark.parametrize(
    "args",
    [
        ["psweep", "--grid", "1024x32", "--trials", "400", "--jobs", "2",
         "--store", "{tmp}"],
        ["fuzz", "--algorithm", "unknown", "--n", "32", "--k", "4",
         "--budget", "100000", "--keep-going", "--store", "{tmp}"],
        ["fuzz", "--algorithm", "unknown", "--n", "32", "--k", "4",
         "--budget", "100000", "--jobs", "2"],
        ["mc", "--algorithm", "unknown", "--n", "10", "--k", "3"],
        ["mc", "--algorithm", "unknown", "--n", "14", "--k", "3", "--jobs", "2"],
    ],
    ids=["psweep-jobs2", "fuzz", "fuzz-jobs2", "mc", "mc-jobs2"],
)
def test_sigint_to_the_process_group_exits_130_cleanly(tmp_path, args):
    """^C at a terminal signals the whole process group, pool workers
    included: only the parent reacts, it reports and exits 130."""
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *args], env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        if args[0] == "psweep":  # prints nothing before it finishes
            deadline = time.monotonic() + 60
            while not _first_record(tmp_path) and time.monotonic() < deadline:
                time.sleep(0.05)
        else:
            process.stdout.readline()  # the header: the run is starting
        time.sleep(1.0)
        os.killpg(process.pid, signal.SIGINT)
        out, err = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    assert process.returncode == 130, (out, err)
    assert "interrupted:" in out
    assert "Traceback" not in err
    assert "Process ForkPoolWorker" not in err
