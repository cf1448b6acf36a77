"""The wave-synchronous search, in memory and spilled: parity, resume,
the delta journal, progress cadence, journal versioning, SIGKILL.

The search advertises three strong guarantees, each pinned here:

* **Entry-point parity** — ``check_frontier(jobs=1)`` and
  ``check_interleavings`` are the same search and report identical
  results.
* **One process per search** — ``jobs`` fans out only whole placements
  (``check_placements``, spilled or not).  ``check_frontier(jobs=2)``
  starts no process and reports results byte-identical to ``jobs=1``,
  agent factories included.
* **Resumability** — a spilled check killed at an arbitrary point (a
  torn journal tail, or a real ``SIGKILL`` of the CLI process mid-run)
  resumes from the last committed wave and finishes with the *same*
  verdict and cumulative stats as an uninterrupted run.  The journal
  records each open item as its parent's index plus the acting agent,
  and replay rebuilds every wave's frontier exactly.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.mc import (
    all_placements,
    check_frontier,
    check_hash,
    check_interleavings,
    check_placements,
    check_spec,
    exhaust_placements,
    replay_counterexample,
)
import repro.mc.parallel as parallel
from repro.mc.frontier import JOURNAL_VERSION, FrontierSpill
from repro.mc.oracle import PropertyOracle
from repro.mc.selftest import wake_race_agents
from repro.ring.placement import Placement

PLACEMENT = Placement(ring_size=8, homes=(0, 3))
BUG_PLACEMENT = Placement(ring_size=8, homes=(0, 1, 3))


def _spill_for(store: Path, algorithm: str, placement: Placement) -> FrontierSpill:
    oracle = PropertyOracle(algorithm, placement)
    spec = check_spec(
        algorithm,
        placement,
        por=True,
        depth_limit=None,
        max_states=None,
        stop_at_first=True,
        safety_props=oracle.safety,
        terminal_props=oracle.terminal,
    )
    return FrontierSpill(str(store), spec)


# ----------------------------------------------------------------------
# Entry-point parity, and jobs invariance
# ----------------------------------------------------------------------


def test_frontier_matches_check_interleavings():
    serial = check_interleavings("unknown", PLACEMENT)
    frontier = check_frontier("unknown", PLACEMENT, jobs=1)
    assert frontier.ok and serial.ok
    assert frontier.to_dict() == serial.to_dict()


def test_frontier_stats_invariant_in_jobs():
    one = check_frontier("unknown", PLACEMENT, jobs=1)
    two = check_frontier("unknown", PLACEMENT, jobs=2)
    assert one.to_dict() == two.to_dict()


def test_frontier_no_por_matches_por_observables():
    reduced = check_frontier("known_k_full", Placement(6, homes=(0, 2)), jobs=1)
    full = check_frontier(
        "known_k_full", Placement(6, homes=(0, 2)), jobs=1, por=False
    )
    assert reduced.explored == full.explored
    assert reduced.terminal_keys == full.terminal_keys
    assert reduced.transitions < full.transitions


def test_frontier_respects_max_states():
    result = check_frontier("unknown", PLACEMENT, jobs=1, max_states=50)
    assert not result.complete
    assert result.explored <= 50 + 1


def test_frontier_factory_at_jobs_2_matches_jobs_1():
    # Nothing crosses a process, so a factory is fine at any jobs.
    runs = [
        check_frontier(
            "wake_race(known_k_logspace)",
            BUG_PLACEMENT,
            jobs=jobs,
            factory=lambda: wake_race_agents(3),
            require_halted=False,
            require_suspended=True,
        )
        for jobs in (1, 2)
    ]
    assert runs[0].violations
    assert runs[1].to_dict() == runs[0].to_dict()


def test_frontier_at_jobs_2_starts_no_process(monkeypatch):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("check_frontier started a process pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    monkeypatch.setattr(multiprocessing, "Process", no_pool)
    result = check_frontier("unknown", PLACEMENT, jobs=2)
    assert result.ok and result.to_dict() == check_frontier(
        "unknown", PLACEMENT, jobs=1
    ).to_dict()


def test_frontier_rejects_jobs_below_one():
    with pytest.raises(ValueError, match="jobs >= 1"):
        check_frontier("unknown", PLACEMENT, jobs=0)
    with pytest.raises(ValueError, match="jobs >= 1"):
        check_placements("unknown", [PLACEMENT], jobs=0)


def test_wake_race_found_by_parallel_frontier_and_replays():
    result = check_frontier(
        "wake_race",
        BUG_PLACEMENT,
        jobs=2,
        require_halted=False,
        require_suspended=True,
    )
    assert result.violations
    violation = result.violations[0]
    assert violation.kind == "terminal"
    _, messages = replay_counterexample(
        violation,
        factory=lambda: wake_race_agents(3),
        require_halted=True,
        require_suspended=False,
    )
    assert messages  # the schedule replays deterministically to a report


# ----------------------------------------------------------------------
# Placement pool (grid fan-out)
# ----------------------------------------------------------------------


def test_placement_pool_matches_serial_grid():
    serial = exhaust_placements("known_k_logspace", 6, 2)
    pooled = exhaust_placements("known_k_logspace", 6, 2, jobs=2)
    assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial]


def test_check_placements_rejects_factory_at_jobs_above_one():
    with pytest.raises(ValueError, match="registered algorithm name"):
        check_placements(
            "unknown", [PLACEMENT], jobs=2, factory=lambda: wake_race_agents(2)
        )
    (result,) = check_placements(
        "wake_race(known_k_logspace)",
        [BUG_PLACEMENT],
        factory=lambda: wake_race_agents(3),
        require_halted=False,
        require_suspended=True,
    )
    assert result.violations  # a factory is fine in this process


def test_spilled_grid_pool_matches_serial_and_resumes(tmp_path, monkeypatch):
    import multiprocessing

    placements = list(all_placements(6, 2))
    assert len(placements) >= 2
    serial = check_placements("known_k_logspace", placements)
    pools = []
    pool = multiprocessing.Pool
    monkeypatch.setattr(
        multiprocessing, "Pool",
        lambda processes: pools.append(processes) or pool(processes),
    )
    store = tmp_path / "store"
    pooled = check_placements(
        "known_k_logspace", placements, jobs=2, store_root=str(store)
    )
    assert pools == [2]  # a spilled grid fans out too
    assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial]
    journals = sorted((store / "mc").glob("*/journal.jsonl"))
    assert len(journals) == len(placements)
    assert len(list((store / "mc").glob("*/result.json"))) == len(placements)
    sizes = [journal.stat().st_size for journal in journals]
    resumed = check_placements(
        "known_k_logspace", placements, jobs=2, store_root=str(store), resume=True
    )
    assert [r.to_dict() for r in resumed] == [r.to_dict() for r in serial]
    assert [journal.stat().st_size for journal in journals] == sizes


@pytest.mark.parametrize(
    "jobs,placements",
    [(1, [PLACEMENT, Placement(8, homes=(0, 2))]), (2, [PLACEMENT])],
    ids=["jobs1-grid", "jobs2-one-placement"],
)
def test_check_placements_reports_progress_in_process(monkeypatch, jobs, placements):
    monkeypatch.setattr(parallel, "PROGRESS_EVERY", 100)
    seen = []
    results = check_placements(
        "unknown", placements, jobs=jobs,
        progress=lambda stats: seen.append(stats.transitions),
    )
    assert len(seen) == sum(result.transitions // 100 for result in results) >= 8


# ----------------------------------------------------------------------
# Disk spill: journal, resume, torn tails
# ----------------------------------------------------------------------


def test_spill_writes_journal_and_result(tmp_path):
    result = check_frontier(
        "unknown", PLACEMENT, jobs=1, store_root=str(tmp_path)
    )
    spill = _spill_for(tmp_path, "unknown", PLACEMENT)
    directory = tmp_path / "mc" / spill.hash
    assert (directory / "meta.json").exists()
    assert (directory / "journal.jsonl").exists()
    stored = json.loads((directory / "result.json").read_text())
    assert stored == result.to_dict()
    meta = json.loads((directory / "meta.json").read_text())
    assert check_hash(meta["spec"]) == spill.hash


def test_resume_of_completed_check_short_circuits(tmp_path):
    first = check_frontier("unknown", PLACEMENT, jobs=1, store_root=str(tmp_path))
    spill = _spill_for(tmp_path, "unknown", PLACEMENT)
    journal = tmp_path / "mc" / spill.hash / "journal.jsonl"
    before = journal.stat().st_size
    again = check_frontier(
        "unknown", PLACEMENT, jobs=1, store_root=str(tmp_path), resume=True
    )
    assert again.to_dict() == first.to_dict()
    assert journal.stat().st_size == before  # nothing re-explored


def test_restart_without_resume_wipes_and_reruns(tmp_path):
    first = check_frontier("unknown", PLACEMENT, jobs=1, store_root=str(tmp_path))
    spill = _spill_for(tmp_path, "unknown", PLACEMENT)
    marker = tmp_path / "mc" / spill.hash / "stale-file"
    marker.write_text("stale")
    second = check_frontier("unknown", PLACEMENT, jobs=1, store_root=str(tmp_path))
    assert second.to_dict() == first.to_dict()
    assert not marker.exists()  # start_fresh wiped the directory


def _truncate_journal(journal: Path, keep_commits: int, garbage: str) -> None:
    """Keep the journal through its Nth commit marker, then a torn tail."""
    kept = []
    commits = 0
    for line in journal.read_text(encoding="utf-8").splitlines(keepends=True):
        kept.append(line)
        if '"t":"c"' in line:
            commits += 1
            if commits == keep_commits:
                break
    assert commits == keep_commits, "journal shorter than expected"
    journal.write_text("".join(kept) + garbage, encoding="utf-8")


@pytest.mark.parametrize(
    "garbage",
    ['{"t":"v","k":"ab', '{"t":"i",broken json}\n', ""],
    ids=["mid-line-kill", "corrupt-line", "clean-commit-boundary"],
)
def test_torn_journal_resumes_to_identical_result(tmp_path, garbage):
    clean = check_frontier("unknown", PLACEMENT, jobs=1, store_root=str(tmp_path))
    spill = _spill_for(tmp_path, "unknown", PLACEMENT)
    directory = tmp_path / "mc" / spill.hash
    _truncate_journal(directory / "journal.jsonl", keep_commits=6, garbage=garbage)
    (directory / "result.json").unlink()
    resumed = check_frontier(
        "unknown", PLACEMENT, jobs=1, store_root=str(tmp_path), resume=True
    )
    assert resumed.to_dict() == clean.to_dict()


def test_torn_journal_resumes_under_different_jobs(tmp_path):
    # The check hash excludes `jobs` by design: a run journaled at
    # jobs=1 must resume under jobs=2 with identical results.
    clean = check_frontier("unknown", PLACEMENT, jobs=1, store_root=str(tmp_path))
    spill = _spill_for(tmp_path, "unknown", PLACEMENT)
    directory = tmp_path / "mc" / spill.hash
    _truncate_journal(directory / "journal.jsonl", keep_commits=4, garbage="")
    (directory / "result.json").unlink()
    resumed = check_frontier(
        "unknown", PLACEMENT, jobs=2, store_root=str(tmp_path), resume=True
    )
    assert resumed.to_dict() == clean.to_dict()


def test_resumed_violation_is_not_reexplored(tmp_path):
    found = check_frontier(
        "wake_race",
        BUG_PLACEMENT,
        jobs=1,
        require_halted=False,
        require_suspended=True,
        store_root=str(tmp_path),
    )
    assert found.violations
    again = check_frontier(
        "wake_race",
        BUG_PLACEMENT,
        jobs=1,
        require_halted=False,
        require_suspended=True,
        store_root=str(tmp_path),
        resume=True,
    )
    assert again.to_dict() == found.to_dict()


#: The check hash of ``repro mc --algorithm wake_race --n 8 --distances
#: 1,2,5`` before the journal was versioned (and before it held edges).
_UNVERSIONED_HASH = "fe8edc56be075aed226ebed6443859ba89dba1b9c78e3e32668465ebb3bb51a2"


def test_check_spec_carries_the_journal_version():
    spill = _spill_for(Path("unused"), "wake_race", BUG_PLACEMENT)
    assert spill.spec["journal"] == JOURNAL_VERSION == 3
    unversioned = {key: value for key, value in spill.spec.items() if key != "journal"}
    assert check_hash(unversioned) == _UNVERSIONED_HASH
    assert spill.hash != _UNVERSIONED_HASH


def test_unversioned_spill_is_never_resumed(tmp_path, capsys):
    # A spill written before the journal held edges: its journal and
    # stored result must not stand in for a search with a cycle pass.
    from repro.cli import main

    old = tmp_path / "mc" / _UNVERSIONED_HASH
    old.mkdir(parents=True)
    (old / "result.json").write_text('{"stale": true}', encoding="utf-8")
    (old / "journal.jsonl").write_text('{"t":"c","w":0}\n', encoding="utf-8")
    code = main(
        ["mc", "--algorithm", "wake_race", "--n", "8", "--distances", "1,2,5",
         "--store", str(tmp_path), "--resume", "--json"]
    )
    assert code == 1  # the race, found by a fresh search
    (cell,) = json.loads(capsys.readouterr().out)["results"]
    assert cell["verdict"] == "violation" and cell["explored"] == 499
    assert sorted(path.name for path in old.iterdir()) == [
        "journal.jsonl", "result.json",
    ]
    spill = _spill_for(tmp_path, "wake_race", BUG_PLACEMENT)
    assert (tmp_path / "mc" / spill.hash / "result.json").exists()


# ----------------------------------------------------------------------
# The delta journal: frontier items as (parent index, acting agent)
# ----------------------------------------------------------------------

#: A cell whose search re-opens states: some of its frontier items
#: carry a ``restrict`` set from the sleep-set revisit rule.
REOPEN_ALGORITHM = "known_k_logspace"
REOPEN_PLACEMENT = Placement(ring_size=6, homes=(0, 3))


def _item_fields(items) -> list:
    return [(item.key, item.schedule, item.sleep, item.restrict) for item in items]


def test_resumed_frontier_equals_the_search_at_every_wave(tmp_path, monkeypatch):
    waves = []
    append_wave = FrontierSpill.append_wave

    def recording(spill, wave, visited_delta, frontier, *rest):
        waves.append(_item_fields(frontier))
        append_wave(spill, wave, visited_delta, frontier, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(FrontierSpill, "append_wave", recording)
        check_frontier(
            REOPEN_ALGORITHM, REOPEN_PLACEMENT, store_root=str(tmp_path / "clean")
        )
    assert any(fields[3] is not None for wave in waves for fields in wave)

    spill = _spill_for(tmp_path / "clean", REOPEN_ALGORITHM, REOPEN_PLACEMENT)
    journal = spill.directory / "journal.jsonl"
    lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    items = [record for record in records if record["t"] == "i"]
    assert items and not any("sch" in record for record in items)
    commits = [i for i, record in enumerate(records) if record["t"] == "c"]
    assert len(commits) == len(waves)
    for wave, end in enumerate(commits):
        cut = _spill_for(tmp_path / f"cut-{wave}", REOPEN_ALGORITHM, REOPEN_PLACEMENT)
        cut.directory.mkdir(parents=True)
        (cut.directory / "journal.jsonl").write_text(
            "".join(lines[: end + 1]), encoding="utf-8"
        )
        state = cut.resume_state()
        assert state.wave == wave
        assert _item_fields(state.frontier) == waves[wave], f"wave {wave}"


def test_version_2_spill_is_never_resumed(tmp_path):
    # Version 2 journaled full schedules; its spec hashes differently,
    # so neither its journal nor its stored result is picked up.
    current = _spill_for(tmp_path, "unknown", PLACEMENT)
    old = FrontierSpill(str(tmp_path), dict(current.spec, journal=2))
    assert old.hash != current.hash
    old.start_fresh()
    root = PropertyOracle("unknown", PLACEMENT).fork_root().snapshot()
    key = root.canonical_key().hex()
    stats = dict.fromkeys(
        ("transitions", "deduped", "terminals", "max_depth", "truncated", "por_skipped"),
        0,
    )
    (old.directory / "journal.jsonl").write_text(
        f'{{"t":"v","k":"{key}","s":[]}}\n'
        f'{{"t":"i","k":"{key}","sch":[],"s":[],"r":null}}\n'
        + json.dumps({"t": "c", "w": 0, "stats": dict(stats, explored=1)})
        + "\n",
        encoding="utf-8",
    )
    (old.directory / "result.json").write_text('{"stale": true}', encoding="utf-8")
    before = sorted((path.name, path.read_bytes()) for path in old.directory.iterdir())

    resumed = check_frontier(
        "unknown", PLACEMENT, store_root=str(tmp_path), resume=True
    )
    assert resumed.to_dict() == check_frontier("unknown", PLACEMENT).to_dict()
    assert sorted(
        (path.name, path.read_bytes()) for path in old.directory.iterdir()
    ) == before
    assert (current.directory / "result.json").exists()


# ----------------------------------------------------------------------
# Progress cadence
# ----------------------------------------------------------------------


def _wave_transitions(store: Path) -> list:
    """Cumulative transitions at each committed wave of a spill."""
    (journal,) = (store / "mc").glob("*/journal.jsonl")
    return [
        json.loads(line)["stats"]["transitions"]
        for line in journal.read_text(encoding="utf-8").splitlines()
        if line.startswith('{"t":"c"')
    ]


@pytest.mark.parametrize("mode", ["jobs1", "jobs2", "spilled"])
def test_progress_fires_once_per_crossed_multiple(tmp_path, monkeypatch, mode):
    # One cadence everywhere: at the end of each wave in which the
    # transition count crosses a multiple of PROGRESS_EVERY.  The waves'
    # cumulative counts come from a spill's commit markers.
    monkeypatch.setattr(parallel, "PROGRESS_EVERY", 100)
    check_frontier("unknown", PLACEMENT, store_root=str(tmp_path / "waves"))
    waves = _wave_transitions(tmp_path / "waves")
    expected = [t for before, t in zip(waves, waves[1:]) if t // 100 > before // 100]
    seen = []
    result = check_frontier(
        "unknown",
        PLACEMENT,
        jobs=2 if mode == "jobs2" else 1,
        store_root=str(tmp_path / "run") if mode == "spilled" else None,
        progress=lambda stats: seen.append(stats.transitions),
    )
    assert seen == expected
    assert len(seen) == result.transitions // 100 >= 8  # not once per wave
    assert len(waves) > 100


# ----------------------------------------------------------------------
# The acceptance test: SIGKILL the CLI mid-check, resume, same answer
# ----------------------------------------------------------------------

_KILL_ARGS = [
    "mc",
    "--algorithm",
    "unknown",
    "--n",
    "10",
    "--distances",
    "3,4,3",
    "--json",
]


def _mc_cli(store: Path, *extra: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *_KILL_ARGS, "--store", str(store), *extra],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_sigkill_mid_check_resumes_to_identical_verdict(tmp_path):
    store = tmp_path / "store"
    spill = _spill_for(
        tmp_path, "unknown", Placement(10, homes=(0, 3, 7))
    )  # same spec hashing path; directory comes from the CLI run below

    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *_KILL_ARGS, "--store", str(store)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    journal = store / "mc" / spill.hash / "journal.jsonl"
    try:
        # Wait until real exploration progress is journaled, then kill
        # without any chance to clean up.
        deadline = time.time() + 120
        committed = 0
        while time.time() < deadline:
            if process.poll() is not None:
                pytest.fail("check finished before it could be killed")
            if journal.exists():
                committed = journal.read_text(encoding="utf-8").count('"t":"c"')
                if committed >= 5:
                    break
            time.sleep(0.02)
        assert committed >= 5, "no committed waves before the deadline"
        os.kill(process.pid, signal.SIGKILL)
    finally:
        process.wait(timeout=60)
    assert process.returncode == -signal.SIGKILL
    assert not (store / "mc" / spill.hash / "result.json").exists()

    resumed = _mc_cli(store, "--resume")
    assert resumed.returncode == 0, resumed.stderr
    document = json.loads(resumed.stdout)

    clean = check_frontier("unknown", Placement(10, homes=(0, 3, 7)), jobs=1)
    cell = document["results"][0]
    assert document["ok"] is True
    assert cell["verdict"] == "ok"
    assert cell["explored"] == clean.explored
    assert cell["transitions"] == clean.transitions
    assert cell["terminals"] == clean.terminals
    assert cell["terminal_keys"] == list(clean.terminal_keys)
    assert cell["max_depth"] == clean.max_depth
