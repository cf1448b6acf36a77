"""Livelock cycles: found after the search, on every path to a verdict.

The search records every successor edge between explored,
non-violating states and runs a strongly-connected-component pass over
them once it is done.  Pinned here:

* the graph pass itself — which components count as cycles, and which
  lasso (shortest path in, then once around) each one yields;
* a two-agent livelock is reported as a ``cycle`` with POR on and off,
  in memory and from a spill resumed after losing half its waves, with
  the same lasso every time;
* that lasso replays through ``replay_counterexample`` with the cycle
  message verbatim;
* with ``stop_at_first=False`` a pair that can end in two different
  livelocks gets one lasso for each.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.mc import check_frontier, check_interleavings, replay_counterexample
from repro.mc.parallel import _cyclic_components, _livelock_lassos
from repro.ring.placement import Placement
from repro.sim.actions import Action
from repro.sim.agent import Agent


class _Circler(Agent):
    """Moves forward forever: two of them livelock together."""

    def transition(self, view):
        return Action.move_forward()


PLACEMENT = Placement(ring_size=6, homes=(0, 3))
KWARGS = dict(
    factory=lambda: [_Circler(), _Circler()],
    require_halted=True,
    require_suspended=False,
)


# ----------------------------------------------------------------------
# The graph pass
# ----------------------------------------------------------------------


def _graph(*edges: str) -> dict:
    """Successor lists from ``"ab"``-style edges, sorted like the search's."""
    successors: dict = {}
    for source, target in sorted(edges):
        successors.setdefault(source.encode(), []).append(target.encode())
    return successors


def _lassos(graph: dict, first_only: bool = False) -> list:
    return [
        "".join(key.decode() for key in lasso)
        for lasso in _livelock_lassos(graph, b"r", first_only)
    ]


@pytest.mark.parametrize(
    "edges,lassos",
    [
        (("ra", "rb", "ac", "bc"), []),
        (("ra", "aa"), ["raa"]),
        (("ra", "ar"), ["rar"]),
        (("rx", "xy", "ya", "ra", "ab", "ba"), ["raba"]),
        (("ra", "ab", "ba", "rc", "cd", "de", "ec"), ["raba", "rcdec"]),
        (("ra", "ab", "bc", "ca", "ac"), ["raca"]),
    ],
    ids=["dag", "self-loop", "through-root", "shortest-prefix",
         "two-components", "shortest-cycle"],
)
def test_one_lasso_per_cyclic_component(edges, lassos):
    graph = _graph(*edges)
    assert _lassos(graph) == lassos
    assert _lassos(graph, first_only=True) == lassos[:1]


def test_components_are_found_without_recursion():
    # A 20k-state chain closed into one cycle: far past the recursion
    # limit a recursive Tarjan would hit.
    keys = [b"%d" % index for index in range(20_000)]
    graph = {source: [target] for source, target in zip(keys, keys[1:] + keys[:1])}
    (component,) = _cyclic_components(graph)
    assert component == set(keys)


# ----------------------------------------------------------------------
# A two-agent livelock, end to end
# ----------------------------------------------------------------------


def _cut_back(store: Path) -> None:
    """Drop ``result.json`` and every wave after the first half."""
    (directory,) = (store / "mc").iterdir()
    journal = directory / "journal.jsonl"
    lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
    commits = [i for i, line in enumerate(lines) if line.startswith('{"t":"c"')]
    assert len(commits) > 2, "too few waves to cut back"
    journal.write_text("".join(lines[: commits[len(commits) // 2 - 1] + 1]))
    (directory / "result.json").unlink()


@pytest.mark.parametrize("por", [True, False], ids=["por", "no-por"])
def test_two_agent_livelock_is_a_cycle(por):
    result = check_interleavings("circlers", PLACEMENT, por=por, **KWARGS)
    assert result.verdict == "violation" and not result.complete
    (violation,) = result.violations
    assert (violation.kind, violation.property_name) == ("cycle", "livelock-cycle")
    assert violation.message == (
        "schedule returns to a state already on its own path after "
        f"{len(violation.schedule)} actions"
    )


@pytest.mark.parametrize("por", [True, False], ids=["por", "no-por"])
def test_resumed_spill_reports_the_same_lasso(tmp_path, por):
    in_memory = check_interleavings("circlers", PLACEMENT, por=por, **KWARGS)
    clean = check_frontier(
        "circlers", PLACEMENT, por=por, store_root=str(tmp_path), **KWARGS
    )
    _cut_back(tmp_path)
    resumed = check_frontier(
        "circlers", PLACEMENT, por=por, store_root=str(tmp_path), resume=True,
        **KWARGS,
    )
    assert clean.to_dict() == in_memory.to_dict() == resumed.to_dict()
    assert resumed.violations[0].schedule == in_memory.violations[0].schedule


@pytest.mark.parametrize("por", [True, False], ids=["por", "no-por"])
def test_lasso_replays_with_the_cycle_message(por):
    result = check_interleavings("circlers", PLACEMENT, por=por, **KWARGS)
    (violation,) = result.violations
    _, messages = replay_counterexample(
        violation, factory=lambda: [_Circler(), _Circler()]
    )
    assert messages == [violation.message]


class _Chooser(Agent):
    """Waits one action at home, then circles forever, remembering how
    many agents stayed at the first node it reached: which livelock the
    pair ends in depends on the schedule."""

    SCALARS = ("left", "saw")

    def __init__(self) -> None:
        super().__init__()
        self.left = False
        self.saw = None

    def transition(self, view):
        if not self.left:
            if self.stage == "start":
                self.stage = "home"
                return Action.stay()
            self.left = True
            return Action.move_forward()
        if self.saw is None:
            self.saw = view.agents_present
        return Action.move_forward()


@pytest.mark.parametrize("por", [True, False], ids=["por", "no-por"])
def test_keep_going_reports_one_lasso_per_component(por):
    kwargs = dict(KWARGS, factory=lambda: [_Chooser(), _Chooser()], por=por)
    placement = Placement(ring_size=5, homes=(0, 2))
    every = check_interleavings("choosers", placement, stop_at_first=False, **kwargs)
    first = check_interleavings("choosers", placement, **kwargs)
    assert [v.kind for v in every.violations] == ["cycle", "cycle"]
    assert every.violations[:1] == first.violations
    assert every.complete and not first.complete
    for violation in every.violations:
        _, messages = replay_counterexample(
            violation, factory=lambda: [_Chooser(), _Chooser()]
        )
        assert messages == [violation.message]


def test_keep_going_explores_everything_and_reports_the_component():
    stopped = check_interleavings("circlers", PLACEMENT, **KWARGS)
    result = check_interleavings(
        "circlers", PLACEMENT, stop_at_first=False, **KWARGS
    )
    assert result.complete and result.verdict == "violation"
    # Every state after the first moves is on one cycle: one component,
    # one lasso, the same one the stopping search reports.
    assert result.violations == stopped.violations
    assert result.explored == stopped.explored
