"""Golden counters for every way of running the mc search, pinned byte
for byte.

Each cell below is checked in process by ``check_interleavings`` (the
search at ``jobs=1``, recorded as ``frontier_j1``), by
``check_frontier`` at ``jobs=2``, and by a spilled run whose journal is
cut back to half its committed waves and resumed.  For each run the
test compares, against ``tests/data/mc_golden.json``:

* the counters ``(verdict, explored, transitions, deduped, por_skipped,
  terminals, max_depth, complete)``,
* a SHA-256 of the sorted ``terminal_keys``,
* every counterexample ``(kind, property, message, schedule)`` and the
  messages ``replay_counterexample`` reports for it,
* for spilled runs, the check hash and SHA-256 digests of ``meta.json``
  and ``journal.jsonl`` (the resumed journal must equal the clean one).

The fixture was first written before the search was rebuilt on the
shared :class:`~repro.mc.oracle.PropertyOracle`, and kept through the
removal of the depth-first driver: only the spill digests (the journal
gained successor edges and a version, then journal version 3 recorded
frontier items as parent-index deltas) and the spinner's livelock, now
found by the cycle pass, changed.  Any drift in exploration order, memo
handling, POR, cycle search or the spill format shows up here.
Regenerate it only for an intended change of those::

    PYTHONPATH=src python tests/test_mc_golden.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional

import pytest

from repro.mc import (
    all_placements,
    check_frontier,
    check_interleavings,
    replay_counterexample,
)
from repro.registry import algorithm_names
from repro.ring.faults import LinkSpec
from repro.ring.placement import Placement
from repro.sim.actions import Action
from repro.sim.agent import Agent

FIXTURE = Path(__file__).parent / "data" / "mc_golden.json"


class _Spinner(Agent):
    """Circles the ring forever: a livelock reported as a cycle."""

    def transition(self, view):
        return Action.move_forward()


def _cells() -> Dict[str, dict]:
    cells: Dict[str, dict] = {}
    for algorithm in algorithm_names():
        for placement in all_placements(6, 2):
            name = f"{algorithm}-6-{'.'.join(map(str, placement.homes))}"
            cells[name] = {"algorithm": algorithm, "placement": placement}
    cells["unknown-9-0.3.6"] = {
        "algorithm": "unknown", "placement": Placement(9, (0, 3, 6)),
    }
    cells["known_k_full-6-0.2-delay1"] = {
        "algorithm": "known_k_full",
        "placement": Placement(6, (0, 2)),
        "links": LinkSpec(delay=1),
    }
    cells["known_k_logspace-6-0.3-nopor"] = {
        "algorithm": "known_k_logspace",
        "placement": Placement(6, (0, 3)),
        "por": False,
    }
    cells["wake_race-8-0.1.3"] = {
        "algorithm": "wake_race", "placement": Placement(8, (0, 1, 3)),
    }
    cells["wake_race-8-0.1.3-keep-going"] = {
        "algorithm": "wake_race",
        "placement": Placement(8, (0, 1, 3)),
        "stop_at_first": False,
    }
    cells["spinner-4-0"] = {
        "algorithm": "spinner",
        "placement": Placement(4, (0,)),
        "factory": lambda: [_Spinner()],
        "require_halted": True,
        "require_suspended": False,
    }
    return cells


CELLS = _cells()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _summary(result, replay_kwargs: dict) -> dict:
    violations = []
    for violation in result.violations:
        _, messages = replay_counterexample(violation, **replay_kwargs)
        violations.append(
            [
                violation.kind,
                violation.property_name,
                violation.message,
                list(violation.schedule),
                messages,
            ]
        )
    return {
        "counters": [
            result.verdict,
            result.explored,
            result.transitions,
            result.deduped,
            result.por_skipped,
            result.terminals,
            result.max_depth,
            result.complete,
        ],
        "terminal_keys": _digest("\n".join(result.terminal_keys).encode()),
        "violations": violations,
    }


def _spill_files(store: Path) -> dict:
    (directory,) = (store / "mc").iterdir()
    return {
        "check_hash": directory.name,
        "meta": _digest((directory / "meta.json").read_bytes()),
        "journal": _digest((directory / "journal.jsonl").read_bytes()),
    }


def _cut_back(store: Path) -> None:
    """Drop ``result.json`` and every wave after the first half."""
    (directory,) = (store / "mc").iterdir()
    journal = directory / "journal.jsonl"
    lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
    commits = [i for i, line in enumerate(lines) if line.startswith('{"t":"c"')]
    keep = commits[max(0, (len(commits) + 1) // 2 - 1)]
    journal.write_text("".join(lines[: keep + 1]), encoding="utf-8")
    (directory / "result.json").unlink()


def _run(cell: dict, driver: str, store: Optional[Path] = None) -> dict:
    cell = dict(cell)
    algorithm = cell.pop("algorithm")
    placement = cell.pop("placement")
    replay_kwargs = {
        key: cell[key]
        for key in ("factory", "links", "require_halted", "require_suspended")
        if key in cell
    }
    if driver == "frontier_j1":
        result = check_interleavings(algorithm, placement, **cell)
        return _summary(result, replay_kwargs)
    if driver == "frontier_j2":
        result = check_frontier(algorithm, placement, jobs=2, **cell)
        return _summary(result, replay_kwargs)
    assert driver == "frontier_resumed" and store is not None
    clean = check_frontier(algorithm, placement, store_root=str(store), **cell)
    files = _spill_files(store)
    _cut_back(store)
    resumed = check_frontier(
        algorithm, placement, store_root=str(store), resume=True, **cell
    )
    assert resumed.to_dict() == clean.to_dict()
    assert _spill_files(store) == files, "resumed journal differs from a clean one"
    return dict(_summary(resumed, replay_kwargs), spill=files)


def _drivers(cell: dict):
    if "factory" in cell:
        return ("frontier_j1",)  # a factory-built instance is pinned in process
    return ("frontier_j1", "frontier_j2", "frontier_resumed")


CASES = [(name, driver) for name, cell in CELLS.items() for driver in _drivers(cell)]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


#: Cells whose pool and resume runs stay in tier-1; the rest of those
#: runs belong to the exhaustive CI job (``-m mc``).
TIER1_CELLS = ("known_k_full-6-0.3", "wake_race-8-0.1.3")


def _case(name: str, driver: str):
    marks = ()
    if driver in ("frontier_j2", "frontier_resumed") and name not in TIER1_CELLS:
        marks = (pytest.mark.mc,)
    return pytest.param(name, driver, marks=marks, id=f"{name}/{driver}")


@pytest.mark.parametrize("name,driver", [_case(n, d) for n, d in CASES])
def test_driver_matches_golden(golden, tmp_path, name, driver):
    assert _run(CELLS[name], driver, tmp_path) == golden[f"{name}/{driver}"]


def test_pinned_counters_in_fixture(golden):
    # The two cells quoted in the docs, spelled out so the fixture cannot
    # drift silently together with the drivers.
    assert golden["unknown-9-0.3.6/frontier_j1"]["counters"] == [
        "ok", 666, 1538, 873, 796, 1, 111, True,
    ]
    assert golden["known_k_full-6-0.2-delay1/frontier_j1"]["counters"][1:7] == [
        183, 321, 139, 0, 1, 29,
    ]


def _record() -> str:
    """The fixture text: one ``"cell/driver": summary`` line per run."""
    lines = []
    for name, driver in CASES:
        store = Path(tempfile.mkdtemp(prefix="mc-golden-"))
        try:
            entry = _run(CELLS[name], driver, store)
        finally:
            shutil.rmtree(store)
        print(f"{name}/{driver}: {entry['counters']}", file=sys.stderr)
        key = json.dumps(f"{name}/{driver}")
        lines.append(f"{key}: {json.dumps(entry, sort_keys=True)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(_record(), encoding="utf-8")
