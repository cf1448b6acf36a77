"""Parallel frontier driver and disk spill: parity, resume, SIGKILL.

The wave-synchronous driver advertises three strong guarantees, each
pinned here:

* **Serial parity** — ``check_frontier(jobs=1)`` matches the DFS of
  ``check_interleavings`` on every cumulative counter and on the
  terminal-state key set.
* **Jobs invariance** — ``jobs=2`` reports numbers byte-identical to
  ``jobs=1`` (the merge order is globally sorted, not arrival order).
* **Resumability** — a spilled check killed at an arbitrary point (a
  torn journal tail, or a real ``SIGKILL`` of the CLI process mid-run)
  resumes from the last committed wave and finishes with the *same*
  verdict and cumulative stats as an uninterrupted run.
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
    check_frontier,
    check_hash,
    check_interleavings,
    check_placements_pool,
    check_spec,
    exhaust_placements,
    replay_counterexample,
)
from repro.mc.frontier import FrontierSpill
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
# Parity with the serial DFS, and jobs invariance
# ----------------------------------------------------------------------


def test_frontier_matches_serial_dfs():
    serial = check_interleavings("unknown", PLACEMENT)
    frontier = check_frontier("unknown", PLACEMENT, jobs=1)
    assert frontier.ok and serial.ok
    assert frontier.explored == serial.explored
    assert frontier.terminals == serial.terminals
    assert frontier.terminal_keys == serial.terminal_keys
    assert frontier.max_depth == serial.max_depth


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


def test_frontier_rejects_factory_with_jobs():
    with pytest.raises(ValueError):
        check_frontier(
            "wake_race(known_k_logspace)",
            BUG_PLACEMENT,
            jobs=2,
            factory=lambda: wake_race_agents(3),
        )


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


def test_placement_pool_rejects_factory():
    with pytest.raises(ValueError):
        check_placements_pool(
            "unknown",
            [PLACEMENT],
            jobs=2,
            factory=lambda: wake_race_agents(2),
        )


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


#: A ``result.json`` exactly as a spill wrote it before results carried a
#: ``liveness`` field (``repro mc --algorithm wake_race --n 8 --distances
#: 1,2,5 --store DIR``), and the check hash naming its directory.
_OLD_RESULT_HASH = "fe8edc56be075aed226ebed6443859ba89dba1b9c78e3e32668465ebb3bb51a2"
_OLD_RESULT = {
    "algorithm": "wake_race", "complete": False, "deduped": 0,
    "explored": 499, "max_depth": 55, "memo_bytes": 12864, "ok": False,
    "placement": {"homes": [0, 1, 3], "ring_size": 8}, "por_skipped": 606,
    "terminal_keys": ["0d5f76cee5618775aa8a2ca0a18ca888"], "terminals": 1,
    "transitions": 498, "verdict": "violation",
    "violations": [
        {
            "kind": "terminal",
            "message": "NOT UNIFORM: n=8 k=3 gaps=() (two agents share a node)",
            "property": "uniform-terminal",
            "schedule": [
                0, 1, 0, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2,
                1, 0, 2, 1, 0, 2, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 2, 2, 2, 2, 2, 2, 2, 1, 2, 1, 2, 1,
            ],
        }
    ],
}


def test_resume_short_circuits_on_a_result_without_liveness(tmp_path, capsys):
    from repro.cli import main

    directory = tmp_path / "mc" / _OLD_RESULT_HASH
    directory.mkdir(parents=True)
    (directory / "result.json").write_text(json.dumps(_OLD_RESULT), encoding="utf-8")
    code = main(
        ["mc", "--algorithm", "wake_race", "--n", "8", "--distances", "1,2,5",
         "--store", str(tmp_path), "--resume", "--json"]
    )
    assert code == 1  # the stored violation, not a fresh search
    (cell,) = json.loads(capsys.readouterr().out)["results"]
    assert cell == dict(_OLD_RESULT, liveness="not checked")
    assert sorted(path.name for path in directory.iterdir()) == ["result.json"]


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
