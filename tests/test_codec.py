"""Pins of the spec codec: round trips, error texts and identities.

Every spec class (placement, link, experiment, sweep, fuzz, campaign,
chaos plan) decodes its own ``to_dict`` form back to an equal value,
directly and through JSON text.  The decoders' error texts and the
identities derived from the canonical JSON form (content hashes, seeds,
``check_hash``, ``payload_hash``) are pinned as literals, so moving the
codec between modules cannot change a byte of them.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.chaos import ChaosPlan, parse_chaos_spec
from repro.campaign.spec import CampaignSpec
from repro.errors import ConfigurationError
from repro.experiments.sweep import SweepSpec, cell_seed
from repro.fuzz import FuzzSpec
from repro.mc.frontier import check_hash
from repro.ring.faults import LinkSpec, parse_link_spec
from repro.spec import ExperimentSpec, PlacementSpec
from repro.store.records import payload_hash

PLACEMENT = PlacementSpec(kind="random", ring_size=16, agent_count=3, seed=1)
LINKS = LinkSpec(delay=2, dup=1, seed=7)
EXPERIMENT = ExperimentSpec(
    algorithm="unknown",
    placement=PlacementSpec(kind="distances", distances=(2, 4)),
)
SWEEP = SweepSpec(algorithms=("unknown",), grid=((8, 2),))
FUZZ = FuzzSpec(algorithm="unknown", placement=PLACEMENT)
CAMPAIGN = CampaignSpec(kind="sweep", sweep=SWEEP)
CHAOS = ChaosPlan(seed=7, kill=0.4, poison=("ab", "cd"))

SPECS = {
    "placement": PLACEMENT,
    "link": LINKS,
    "experiment": EXPERIMENT.with_options(
        scheduler="random", scheduler_seed=3, max_steps=900, links=LINKS
    ),
    "sweep": SweepSpec(
        algorithms=("known_k_full", "unknown"),
        grid=((12, 3), (16, 4)),
        schedulers=("sync", "random"),
        trials=2,
        base_seed=7,
        links=LINKS,
    ),
    "fuzz": FUZZ.with_options(budget=20, max_steps=800, links=LINKS),
    "campaign": CampaignSpec(kind="fuzz", fuzz=FUZZ, workers=3, lease_ttl=5.0),
    "chaos": CHAOS,
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_to_dict_round_trips(name):
    spec = SPECS[name]
    assert type(spec).from_dict(spec.to_dict()) == spec
    text = json.dumps(spec.to_dict())
    assert type(spec).from_dict(json.loads(text)) == spec


@pytest.mark.parametrize("name", ["experiment", "sweep", "fuzz", "campaign"])
def test_json_documents_round_trip(name):
    spec = SPECS[name]
    assert type(spec).from_json(spec.to_json()) == spec
    assert type(spec).from_json(spec.to_json(indent=None)) == spec


def _error(call, *args) -> str:
    with pytest.raises(ConfigurationError) as caught:
        call(*args)
    return str(caught.value)


#: ``from_dict`` label of each class.
LABELS = {
    PlacementSpec: "placement spec",
    LinkSpec: "link spec",
    ExperimentSpec: "experiment spec",
    SweepSpec: "sweep spec",
    FuzzSpec: "fuzz spec",
    CampaignSpec: "campaign spec",
    ChaosPlan: "chaos plan",
}


@pytest.mark.parametrize("spec_class", list(LABELS), ids=lambda c: c.__name__)
def test_preamble_error_texts(spec_class):
    label = LABELS[spec_class]
    assert _error(spec_class.from_dict, [1]) == f"{label} must be a dict, got list"
    assert _error(spec_class.from_dict, {"zz": 1, "aa": 2}) == (
        f"{label} has unknown keys ['aa', 'zz']"
    )


PLACED = {"kind": "equidistant", "ring_size": 8, "agent_count": 2}

MISSING = [
    (ExperimentSpec, {}, "experiment spec is missing required key 'algorithm'"),
    (
        ExperimentSpec,
        {"algorithm": "unknown"},
        "experiment spec is missing required key 'placement'",
    ),
    (FuzzSpec, {}, "fuzz spec is missing required key 'algorithm'"),
    (
        FuzzSpec,
        {"placement": PLACED},
        "fuzz spec is missing required key 'algorithm'",
    ),
    (SweepSpec, {}, "sweep spec is missing required key 'algorithms'"),
    (
        SweepSpec,
        {"algorithms": ["unknown"]},
        "sweep spec is missing required key 'grid'",
    ),
    (
        ExperimentSpec,
        {"algorithm": "unknown", "placement": PLACED, "engine": []},
        "experiment spec section 'engine' must be a dict, got list",
    ),
    (
        FuzzSpec,
        {"algorithm": "unknown", "placement": PLACED, "budget": 3},
        "fuzz spec section 'budget' must be a dict, got int",
    ),
    (
        CampaignSpec,
        {"kind": "sweep", "fleet": []},
        "campaign spec section 'fleet' must be a dict, got list",
    ),
]


@pytest.mark.parametrize("spec_class,data,text", MISSING)
def test_missing_key_and_section_texts(spec_class, data, text):
    assert _error(spec_class.from_dict, data) == text


#: A string where a list belongs is rejected by name, never split into
#: one name per character.
SWEEP_LISTS = [
    (
        {"algorithms": "unknown", "grid": [[8, 2]]},
        "sweep spec 'algorithms' must be a list, got 'unknown'",
    ),
    (
        {"algorithms": ["unknown"], "grid": [[8, 2]], "schedulers": "sync"},
        "sweep spec 'schedulers' must be a list, got 'sync'",
    ),
    (
        {"algorithms": {"unknown": 1}, "grid": [[8, 2]]},
        "sweep spec 'algorithms' must be a list, got {'unknown': 1}",
    ),
    (
        {"algorithms": ["unknown"], "grid": "64x4"},
        "sweep spec 'grid' must be a list, got '64x4'",
    ),
]


@pytest.mark.parametrize("data,text", SWEEP_LISTS)
def test_sweep_list_field_texts(data, text):
    assert _error(SweepSpec.from_dict, data) == text


@pytest.mark.parametrize(
    "spec_class", [ExperimentSpec, SweepSpec, FuzzSpec, CampaignSpec],
    ids=lambda c: c.__name__,
)
def test_json_and_file_error_texts(spec_class, tmp_path):
    label = LABELS[spec_class]
    with pytest.raises(json.JSONDecodeError) as parse_error:
        json.loads("{nope")
    assert _error(spec_class.from_json, "{nope") == (
        f"{label} is not valid JSON: {parse_error.value}"
    )
    path = str(tmp_path / "absent.json")
    with pytest.raises(OSError) as read_error:
        open(path, encoding="utf-8")
    assert _error(spec_class.load, path) == (
        f"cannot read {label} {path!r}: {read_error.value}"
    )


KEY_VALUE_ERRORS = [
    (parse_link_spec, "delay", "bad links entry 'delay'; expected key=value"),
    (parse_link_spec, "delay=x", "bad links value 'x' for 'delay'"),
    (
        parse_link_spec,
        "delay=1,bogus=1",
        "unknown links key 'bogus'; expected one of delay, loss, dup, seed",
    ),
    (
        parse_link_spec,
        "seed=3",
        "links spec injects nothing; give at least one of delay/loss/dup bounds",
    ),
    (parse_chaos_spec, "kill", "bad chaos entry 'kill'; expected key=value"),
    (parse_chaos_spec, "kill=x", "bad chaos value 'x' for 'kill'"),
    (parse_chaos_spec, "seed=2.7", "bad chaos value '2.7' for 'seed'"),
    (
        parse_chaos_spec,
        "bogus=1",
        "unknown chaos key 'bogus'; expected one of seed, kill, stall, "
        "silence, stall_seconds, silence_seconds, poison",
    ),
    (
        parse_chaos_spec,
        "seed=3",
        "chaos spec injects nothing; give at least one of "
        "kill/stall/silence probabilities or a poison prefix",
    ),
]


@pytest.mark.parametrize("parse,text,error", KEY_VALUE_ERRORS)
def test_key_value_error_texts(parse, text, error):
    assert _error(parse, text) == error


def test_key_value_parses():
    assert parse_link_spec(" delay=2, dup=1 ,seed=7,") == LINKS
    assert parse_chaos_spec("seed=7,kill=0.4,poison=ab, poison = cd") == CHAOS


def test_pinned_identities():
    assert cell_seed(0, "known_k_full", 64, 8, "random", 3) == 6194896478624674796
    assert EXPERIMENT.content_hash() == (
        "9b990d291da1cb727d99e50172ee18d3b15f34101a8b2f642371eaa8df5cd130"
    )
    assert EXPERIMENT.derive_seed("x") == 195620161488961317
    assert EXPERIMENT.derive_seed() == 5331732697304447979
    assert FUZZ.content_hash() == (
        "bc7c208f3ca41b620ab450322089823a650381297e6cc6f31161f51317cc5bb9"
    )
    assert FUZZ.derive_seed("placement|0") == 4560635730134270379
    assert SWEEP.content_hash() == (
        "0d8f6a4f4ac83ffa828cbfc75605fd674c116a5e15dcbf9337e6c7145a8af408"
    )
    assert CAMPAIGN.content_hash() == (
        "d9962c56d31c5af13878741a500bc7f9765b898e0ad0ee59cb48a73380e6b3d6"
    )
    assert CAMPAIGN.work_hash() == (
        "d927d85d4fb57a9042419ef876f01b3bdf68097db0be81cce508531aa38fe7a6"
    )
    assert check_hash(
        {"algorithm": "unknown", "homes": [0, 2], "ring_size": 6,
         "por": True, "depth_limit": None}
    ) == "2e300f9764d2271dd14b77204fa9c2f95e6847670fa98de49d4e93585e72d0bc"
    assert payload_hash(
        {"algorithm": "unknown", "total_moves": 12, "final_positions": [0, 3],
         "ideal_time": None}
    ) == "bbc6bb14ee8b93095562328418c187ccc629a19c228a3009cd7563b4aa60f4c1"


def test_content_hash_is_memoised_per_instance():
    spec = FUZZ.with_options(budget=7)
    digest = spec.content_hash()
    assert spec.__dict__["_content_hash"] == digest  # computed once
    assert spec.with_options(budget=8).content_hash() != digest
    assert spec.with_options(budget=1000) == FUZZ
    assert spec.with_options(budget=1000).content_hash() == FUZZ.content_hash()
