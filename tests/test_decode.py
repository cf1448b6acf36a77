"""The spec decoders read values strictly and take dataclass defaults.

Every ``from_dict`` decoder (placement, experiment, link, sweep, fuzz,
campaign, chaos plan) reads its numeric and boolean fields through
:mod:`repro.decode`: a ``bool``, a ``float`` or a string where an
integer belongs, or a string or number where a boolean belongs, is a
:class:`~repro.errors.ConfigurationError`, never a silent ``int(...)``
or ``bool(...)`` coercion, and an absent key takes the spec dataclass's
default.  Valid documents decode to the specs (and content hashes) they
always did.
"""

from __future__ import annotations

import copy

import pytest

from repro.campaign.chaos import ChaosPlan
from repro.campaign.spec import CampaignSpec
from repro.errors import ConfigurationError
from repro.experiments.sweep import SweepSpec
from repro.fuzz import FuzzSpec
from repro.ring.faults import LinkSpec
from repro.spec import ExperimentSpec, PlacementSpec

EXPERIMENT = {
    "algorithm": "unknown",
    "placement": {"kind": "random", "ring_size": 12, "agent_count": 3, "seed": 5},
    "scheduler": {"spec": "random", "seed": 9},
    "engine": {"memory_audit_interval": 8},
    "limits": {"max_steps": 5000},
    "links": {"delay": 1, "dup": 1, "seed": 3},
}
SWEEP = {
    "algorithms": ["known_k_full", "unknown"],
    "grid": [[12, 3], [16, 4]],
    "schedulers": ["sync", "random"],
    "trials": 2,
    "base_seed": 7,
    "max_steps": 9000,
    "links": {"loss": 1},
}
FUZZ = {
    "algorithm": "unknown",
    "placement": {"kind": "random", "ring_size": 16, "agent_count": 3, "seed": 1},
    "budget": {"runs": 20, "max_steps": 800},
    "mutation": {"seed": 4, "placements": 2, "corpus_size": 16, "mutations": 2},
}
CAMPAIGN = {
    "kind": "sweep",
    "sweep": {"algorithms": ["unknown"], "grid": [[8, 2]]},
    "fleet": {
        "workers": 3, "lease_ttl": 5, "unit_timeout": 60.0,
        "max_retries": 2, "shards": 2,
    },
}

#: Content hashes of the documents above, as decoded before the strict
#: readers existed.
HASHES = {
    "experiment": "47fd4d81f1cc35bd40b0e9ad0a015b82247982484fe057231ea0ada6179530de",
    "sweep": "eeb34a4d8b248e7067a2c659d19306ad287d0ad6334288c5ba41efdf98b257e2",
    "fuzz": "c10dbab23cb6ed33d9121afc301cfd2ca6556d36d98cd9baa1bd2da70a9be799",
    "campaign": "21338903102e141e10c7b2485797cfbd1931580480112872f4662264bf35fc12",
}
DECODERS = {
    "experiment": (ExperimentSpec, EXPERIMENT),
    "sweep": (SweepSpec, SWEEP),
    "fuzz": (FuzzSpec, FUZZ),
    "campaign": (CampaignSpec, CAMPAIGN),
}


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_valid_documents_keep_their_content_hashes(name):
    spec_class, document = DECODERS[name]
    spec = spec_class.from_dict(copy.deepcopy(document))
    assert spec.content_hash() == HASHES[name]
    assert spec_class.from_dict(spec.to_dict()) == spec


def _with(document, path, value):
    """A deep copy of ``document`` with the key at ``path`` set to ``value``."""
    edited = copy.deepcopy(document)
    section = edited
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    return edited


MISTYPED = [
    ("sweep", ("trials",), 2.9),
    ("sweep", ("base_seed",), True),
    ("sweep", ("max_steps",), "7"),
    ("sweep", ("grid", 0), [8.9, 2]),
    ("sweep", ("grid", 1), [16, False]),
    ("sweep", ("links", "loss"), 1.0),
    ("experiment", ("scheduler", "seed"), True),
    ("experiment", ("limits", "max_steps"), 7.0),
    ("experiment", ("engine", "memory_audit_interval"), "16"),
    ("experiment", ("links", "delay"), 1.7),
    ("fuzz", ("budget", "runs"), "20"),
    ("fuzz", ("budget", "max_steps"), 800.0),
    ("fuzz", ("mutation", "seed"), False),
    ("fuzz", ("mutation", "corpus_size"), 16.5),
    ("campaign", ("fleet", "workers"), 3.0),
    ("campaign", ("fleet", "shards"), True),
    ("campaign", ("fleet", "lease_ttl"), "5"),
    ("campaign", ("fleet", "backoff_cap"), True),
]


@pytest.mark.parametrize("name,path,value", MISTYPED)
def test_mistyped_numbers_are_rejected(name, path, value):
    spec_class, document = DECODERS[name]
    with pytest.raises(ConfigurationError, match=r"must be an? (integer|number)"):
        spec_class.from_dict(_with(document, path, value))


def test_link_spec_rejects_float_and_bool():
    for data in ({"delay": 1.7}, {"loss": True}, {"dup": "1"}, {"seed": None}):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            LinkSpec.from_dict(data)


def test_absent_keys_take_the_dataclass_defaults():
    sweep = SweepSpec.from_dict({"algorithms": ["unknown"], "grid": [[8, 2]]})
    assert sweep == SweepSpec(algorithms=("unknown",), grid=((8, 2),))
    fuzz = FuzzSpec.from_dict({"algorithm": "unknown", "placement": FUZZ["placement"]})
    assert fuzz == FuzzSpec(
        algorithm="unknown", placement=FuzzSpec.from_dict(FUZZ).placement
    )
    campaign = CampaignSpec.from_dict({"kind": "sweep", "sweep": CAMPAIGN["sweep"]})
    assert campaign == CampaignSpec(kind="sweep", sweep=sweep)
    assert LinkSpec.from_dict({}) == LinkSpec()
    experiment = ExperimentSpec.from_dict(
        {"algorithm": "unknown", "placement": EXPERIMENT["placement"]}
    )
    assert experiment == ExperimentSpec(
        algorithm="unknown", placement=ExperimentSpec.from_dict(EXPERIMENT).placement
    )


def test_null_is_accepted_only_where_the_default_is_none():
    assert SweepSpec.from_dict(_with(SWEEP, ("max_steps",), None)).max_steps is None
    with pytest.raises(ConfigurationError, match="'trials' must be an integer"):
        SweepSpec.from_dict(_with(SWEEP, ("trials",), None))


COERCED = [
    (
        ExperimentSpec,
        _with(EXPERIMENT, ("engine", "collect_metrics"), "false"),
        "experiment spec engine 'collect_metrics' must be a boolean, got 'false'",
    ),
    (
        ExperimentSpec,
        _with(EXPERIMENT, ("engine", "validate_enabledness"), "no"),
        "experiment spec engine 'validate_enabledness' must be a boolean, "
        "got 'no'",
    ),
    (
        ExperimentSpec,
        _with(EXPERIMENT, ("engine", "collect_metrics"), 0),
        "experiment spec engine 'collect_metrics' must be a boolean, got 0",
    ),
    (
        PlacementSpec,
        {"kind": "homes", "ring_size": 8, "homes": [0, 3.9]},
        "placement spec 'homes' entry must be an integer, got 3.9",
    ),
    (
        PlacementSpec,
        {"kind": "distances", "distances": [2, "3"]},
        "placement spec 'distances' entry must be an integer, got '3'",
    ),
    (
        PlacementSpec,
        {"kind": "distances", "distances": [True, 4]},
        "placement spec 'distances' entry must be an integer, got True",
    ),
    (
        PlacementSpec,
        {"kind": "random", "ring_size": 8.0, "agent_count": 2, "seed": 1},
        "placement spec 'ring_size' must be an integer, got 8.0",
    ),
    (
        PlacementSpec,
        {"kind": "equidistant", "ring_size": 8, "agent_count": "2"},
        "placement spec 'agent_count' must be an integer, got '2'",
    ),
    (
        PlacementSpec,
        {"kind": "distances", "distances": 5},
        "placement spec 'distances' must be a list, got 5",
    ),
    (
        PlacementSpec,
        {"kind": "homes", "ring_size": 8, "homes": "03"},
        "placement spec 'homes' must be a list, got '03'",
    ),
    (ChaosPlan, {"poison": "ab"}, "chaos plan 'poison' must be a list, got 'ab'"),
    (ChaosPlan, {"seed": 2.7}, "chaos plan 'seed' must be an integer, got 2.7"),
    (ChaosPlan, {"kill": "0.5"}, "chaos plan 'kill' must be a number, got '0.5'"),
    (ChaosPlan, {"stall_seconds": True}, "chaos plan 'stall_seconds' must be a "
     "number, got True"),
]


@pytest.mark.parametrize("spec_class,data,text", COERCED)
def test_values_that_used_to_be_coerced_are_rejected(spec_class, data, text):
    with pytest.raises(ConfigurationError) as caught:
        spec_class.from_dict(data)
    assert str(caught.value) == text


def test_booleans_and_placement_sequences_still_decode():
    spec = ExperimentSpec.from_dict(
        _with(EXPERIMENT, ("engine", "collect_metrics"), False)
    )
    assert spec.collect_metrics is False
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec
    placement = PlacementSpec.from_dict({"kind": "distances", "distances": [2, 4]})
    assert placement.distances == (2, 4)
    assert ChaosPlan.from_dict({"kill": 1}) == ChaosPlan(kill=1.0)
