"""The job-kind table in :mod:`repro.jobs` and the README's copy of it.

The README's "Experiment service" table lists each kind's spec class,
service options with defaults, and the keys of the final ``progress``
and of ``result``.  Here it is checked against :data:`KINDS` and
against what each body actually publishes on a tiny spec.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec
from repro.experiments.sweep import SweepSpec
from repro.fuzz import FuzzSpec
from repro.jobs import KINDS
from repro.spec import ExperimentSpec, PlacementSpec

README = Path(__file__).resolve().parents[1] / "README.md"

_SWEEP = SweepSpec(algorithms=("known_k_full",), grid=((8, 2),))
SPECS = {
    "experiment": ExperimentSpec(
        algorithm="known_k_full",
        placement=PlacementSpec(
            kind="random", ring_size=8, agent_count=2, seed=0
        ),
    ),
    "sweep": _SWEEP,
    "fuzz": FuzzSpec(
        algorithm="known_k_full",
        placement=PlacementSpec(
            kind="random", ring_size=8, agent_count=2, seed=0
        ),
        budget=2,
        placements=1,
    ),
    "campaign": CampaignSpec(kind="sweep", sweep=_SWEEP, workers=1),
}


def _readme_rows():
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) == 5 and cells[0].strip("`") in KINDS:
            rows[cells[0].strip("`")] = cells
    return rows


def _names(cell):
    return re.findall(r"`(\w+)`", cell)


def test_readme_lists_every_kind_once():
    assert list(_readme_rows()) == list(KINDS)


@pytest.mark.parametrize("kind", list(KINDS))
def test_readme_row_matches_kind(kind, tmp_path):
    _, spec_cell, options_cell, progress_cell, result_cell = (
        _readme_rows()[kind]
    )
    entry = KINDS[kind]
    assert spec_cell.strip("`") == entry.spec_class().__name__
    documented = dict(re.findall(r"`(\w+)=([^`]+)`", options_cell))
    assert {name: json.loads(value) for name, value in documented.items()} == {
        name: option.default for name, option in entry.options.items()
    }
    updates = []
    _, result = entry.run(
        SPECS[kind], entry.check_options({}), store_root=str(tmp_path),
        progress=updates.append,
    )
    assert _names(progress_cell) == list(updates[-1])
    assert _names(result_cell) == list(result)


def test_option_defaults_have_their_declared_type():
    for entry in KINDS.values():
        for name, option in entry.options.items():
            assert option.check(name, option.default) == option.default


def _running_keys():
    """The README's "While a job runs" keys per kind."""
    text = README.read_text(encoding="utf-8")
    sentence = text[text.index("While a job runs"):].split(".")[0]
    return {
        kind: _names(names)
        for names, kind in re.findall(r"((?:`\w+`/?)+) \((\w+)\)", sentence)
    }


@pytest.mark.parametrize("kind", ["sweep", "fuzz", "campaign"])
def test_running_progress_is_the_subsystems_flat_dict(kind, tmp_path):
    # Each subsystem publishes the dict itself; the body only adds the
    # final counters.
    updates = []
    entry = KINDS[kind]
    entry.run(
        SPECS[kind], entry.check_options({}), store_root=str(tmp_path),
        progress=updates.append,
    )
    assert len(updates) >= 2
    assert all(list(update) == _running_keys()[kind] for update in updates[:-1])
