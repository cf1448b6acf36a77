"""Tests for the declarative ExperimentSpec (round trip, hash, replay)."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.runner import build_engine, run_experiment
from repro.ring.placement import Placement, random_placement
from repro.spec import ExperimentSpec, PlacementSpec, run_spec


class TestPlacementSpec:
    def test_random_builds_like_random_placement(self):
        spec = PlacementSpec(kind="random", ring_size=30, agent_count=5, seed=7)
        assert spec.build() == random_placement(30, 5, random.Random(7))

    def test_distances_and_homes_kinds(self):
        by_distance = PlacementSpec(kind="distances", distances=(5, 7, 4, 8))
        assert by_distance.build().distances == (5, 7, 4, 8)
        by_homes = PlacementSpec(kind="homes", ring_size=12, homes=(0, 3, 7))
        assert by_homes.build() == Placement(ring_size=12, homes=(0, 3, 7))

    def test_equidistant_and_quarter_kinds(self):
        assert PlacementSpec(
            kind="equidistant", ring_size=12, agent_count=4
        ).build().symmetry_degree == 4
        quarter = PlacementSpec(kind="quarter", ring_size=32, agent_count=4).build()
        assert max(quarter.homes) < 8

    def test_from_placement_is_lossless(self):
        placement = random_placement(40, 6, random.Random(3))
        spec = PlacementSpec.from_placement(placement)
        assert spec.build() == placement
        assert PlacementSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown placement kind"):
            PlacementSpec(kind="banana", ring_size=8, agent_count=2)

    def test_missing_required_field_rejected(self):
        with pytest.raises(ConfigurationError, match="requires 'agent_count'"):
            PlacementSpec(kind="random", ring_size=8, seed=0)

    def test_irrelevant_field_rejected(self):
        with pytest.raises(ConfigurationError, match="does not take 'seed'"):
            PlacementSpec(kind="distances", distances=(3, 5), seed=1)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            PlacementSpec.from_dict({"kind": "random", "n": 8})

    def test_sequences_normalise_to_int_tuples(self):
        spec = PlacementSpec(kind="distances", distances=[3, 5])
        assert spec.distances == (3, 5)


class TestExperimentSpecValidation:
    def test_unknown_algorithm_rejected_eagerly(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            ExperimentSpec(
                algorithm="nope",
                placement=PlacementSpec(kind="distances", distances=(3, 5)),
            )

    def test_bad_scheduler_spec_rejected_eagerly(self):
        with pytest.raises(ConfigurationError, match="no parameter"):
            ExperimentSpec(
                algorithm="unknown",
                placement=PlacementSpec(kind="distances", distances=(3, 5)),
                scheduler="laggard:wat=1",
            )

    def test_concrete_placement_must_go_through_placementspec(self):
        placement = random_placement(12, 3, random.Random(0))
        with pytest.raises(ConfigurationError, match="PlacementSpec"):
            ExperimentSpec(algorithm="unknown", placement=placement)
        spec = ExperimentSpec.for_placement("unknown", placement)
        assert spec.build_placement() == placement

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_non_positive_max_steps_rejected(self, max_steps):
        from repro.experiments.sweep import SweepSpec

        with pytest.raises(ConfigurationError, match="max_steps must be >= 1"):
            ExperimentSpec(
                algorithm="unknown",
                placement=PlacementSpec(kind="distances", distances=(3, 5)),
                max_steps=max_steps,
            )
        with pytest.raises(ConfigurationError, match="max_steps must be >= 1"):
            SweepSpec(
                algorithms=("unknown",), grid=((6, 2),), max_steps=max_steps
            )

    def test_scheduler_string_canonicalises_on_construction(self):
        spec = ExperimentSpec(
            algorithm="unknown",
            placement=PlacementSpec(kind="distances", distances=(3, 5)),
            scheduler=" laggard: victim=0 , patience=5 ",
        )
        assert spec.scheduler == "laggard:victims=0,patience=5"

    def test_equal_specs_compare_and_hash_equal(self):
        def make():
            return ExperimentSpec(
                algorithm="known_k_full",
                placement=PlacementSpec(
                    kind="random", ring_size=24, agent_count=4, seed=1
                ),
                scheduler="laggard:victim=2",
            )

        assert make() == make()
        assert hash(make()) == hash(make())
        assert make().content_hash() == make().content_hash()

    def test_with_options_replaces_fields(self):
        spec = ExperimentSpec(
            algorithm="unknown",
            placement=PlacementSpec(kind="distances", distances=(3, 5)),
        )
        bounded = spec.with_options(max_steps=100)
        assert bounded.max_steps == 100 and spec.max_steps is None
        assert bounded.content_hash() != spec.content_hash()


# -- Hypothesis strategies ---------------------------------------------------

_ALGORITHM = st.sampled_from(
    ["known_k_full", "known_n_full", "known_k_logspace", "unknown"]
)

_RANDOM_PLACEMENT = st.builds(
    lambda n, k, seed: PlacementSpec(
        kind="random", ring_size=n, agent_count=k, seed=seed
    ),
    n=st.integers(8, 256),
    k=st.integers(1, 8),
    seed=st.integers(0, 2**31),
)
_DISTANCE_PLACEMENT = st.builds(
    lambda distances: PlacementSpec(kind="distances", distances=tuple(distances)),
    distances=st.lists(st.integers(1, 12), min_size=1, max_size=6),
)
_HOMES_PLACEMENT = st.builds(
    lambda n, homes: PlacementSpec(
        kind="homes", ring_size=n, homes=tuple(sorted(homes))
    ),
    n=st.just(64),
    homes=st.sets(st.integers(0, 63), min_size=1, max_size=6),
)
_EQUI_PLACEMENT = st.builds(
    lambda n, k: PlacementSpec(kind="equidistant", ring_size=n, agent_count=k),
    n=st.integers(8, 64),
    k=st.integers(1, 8),
)
_PLACEMENT = st.one_of(
    _RANDOM_PLACEMENT, _DISTANCE_PLACEMENT, _HOMES_PLACEMENT, _EQUI_PLACEMENT
)

_SCHEDULER = st.one_of(
    st.sampled_from(["sync", "random", "laggard", "burst", "chaos"]),
    st.builds(lambda s: f"random:seed={s}", st.integers(0, 99)),
    st.builds(
        lambda victims, patience: (
            f"laggard:victims={'-'.join(map(str, sorted(victims)))},"
            f"patience={patience}"
        ),
        victims=st.sets(st.integers(0, 7), min_size=1, max_size=3),
        patience=st.integers(1, 200),
    ),
    st.builds(lambda b, s: f"burst:burst={b},seed={s}", st.integers(1, 99),
              st.integers(0, 99)),
    st.builds(lambda e: f"chaos:epoch={e}", st.integers(1, 99)),
)

_EXPERIMENT_SPEC = st.builds(
    ExperimentSpec,
    algorithm=_ALGORITHM,
    placement=_PLACEMENT,
    scheduler=_SCHEDULER,
    scheduler_seed=st.integers(0, 2**31),
    max_steps=st.one_of(st.none(), st.integers(1, 10**6)),
    memory_audit_interval=st.integers(1, 64),
    collect_metrics=st.booleans(),
    validate_enabledness=st.booleans(),
)


class TestRoundTripProperties:
    @settings(max_examples=200, deadline=None)
    @given(spec=_EXPERIMENT_SPEC)
    def test_dict_round_trip_is_identity(self, spec):
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=200, deadline=None)
    @given(spec=_EXPERIMENT_SPEC)
    def test_json_round_trip_preserves_spec_and_hash(self, spec):
        reloaded = ExperimentSpec.from_json(spec.to_json())
        assert reloaded == spec
        assert reloaded.content_hash() == spec.content_hash()

    @settings(max_examples=100, deadline=None)
    @given(spec=_EXPERIMENT_SPEC, salt=st.integers(0, 2**31))
    def test_derive_seed_is_stable_and_63_bit(self, spec, salt):
        seed = spec.derive_seed(salt)
        assert seed == spec.derive_seed(salt)
        assert 0 <= seed < 2**63

    @settings(max_examples=100, deadline=None)
    @given(spec=_EXPERIMENT_SPEC)
    def test_content_hash_differs_when_algorithm_flips(self, spec):
        other = spec.with_options(
            algorithm="unknown" if spec.algorithm != "unknown" else "known_k_full"
        )
        assert other.content_hash() != spec.content_hash()


class TestContentHash:
    def test_pinned_hash(self):
        # The content hash is a cross-run contract (cache keys, derived
        # seeds); this pin detects accidental canonical-form changes.
        spec = ExperimentSpec(
            algorithm="known_k_full",
            placement=PlacementSpec(kind="random", ring_size=24, agent_count=4, seed=0),
        )
        assert spec.content_hash() == (
            "2e06224e588a4d06c90f2341a7f5b786ccf1a454d749549048bc688b5d442647"
        )

    def test_hash_is_sensitive_to_every_section(self):
        base = ExperimentSpec(
            algorithm="known_k_full",
            placement=PlacementSpec(kind="random", ring_size=24, agent_count=4, seed=0),
        )
        variants = [
            base.with_options(algorithm="unknown"),
            base.with_options(
                placement=PlacementSpec(
                    kind="random", ring_size=24, agent_count=4, seed=1
                )
            ),
            base.with_options(scheduler="random"),
            base.with_options(scheduler_seed=1),
            base.with_options(max_steps=10),
            base.with_options(memory_audit_interval=1),
            base.with_options(collect_metrics=False),
            base.with_options(validate_enabledness=True),
        ]
        hashes = {spec.content_hash() for spec in variants} | {base.content_hash()}
        assert len(hashes) == len(variants) + 1


class TestSpecDrivenRuns:
    """The acceptance contract: JSON-reloaded specs replay byte for byte."""

    SPECS = [
        ExperimentSpec(
            algorithm="known_k_full",
            placement=PlacementSpec(kind="random", ring_size=24, agent_count=4, seed=2),
            scheduler="random",
            scheduler_seed=5,
        ),
        ExperimentSpec(
            algorithm="unknown",
            placement=PlacementSpec(kind="distances", distances=(5, 7, 4, 8)),
            scheduler="laggard:victims=1,patience=9",
            scheduler_seed=3,
        ),
        ExperimentSpec(
            algorithm="known_k_logspace",
            placement=PlacementSpec(kind="homes", ring_size=20, homes=(0, 3, 9, 11)),
            scheduler="chaos:epoch=7",
        ),
        ExperimentSpec(
            algorithm="known_n_full",
            placement=PlacementSpec(kind="equidistant", ring_size=18, agent_count=3),
            scheduler="burst:burst=5,seed=2",
        ),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=[s.algorithm for s in SPECS])
    def test_json_reload_reruns_identically(self, spec):
        reloaded = ExperimentSpec.from_json(spec.to_json())
        original = run_experiment(spec)
        replayed = run_experiment(reloaded)
        assert replayed.row() == original.row()
        assert replayed.final_positions == original.final_positions
        engine_a = build_engine(spec)
        engine_b = build_engine(reloaded)
        engine_a.run()
        engine_b.run()
        assert engine_a.activation_log == engine_b.activation_log
        assert engine_a.metrics == engine_b.metrics

    @pytest.mark.parametrize("spec", SPECS, ids=[s.algorithm for s in SPECS])
    def test_spec_run_matches_kwargs_run(self, spec):
        placement = spec.build_placement()
        via_kwargs = run_experiment(
            spec.algorithm, placement, scheduler=spec.build_scheduler()
        )
        via_spec = run_spec(spec)
        assert via_spec.row() == via_kwargs.row()
        engine_spec = build_engine(spec)
        engine_kwargs = build_engine(
            spec.algorithm, placement, scheduler=spec.build_scheduler()
        )
        engine_spec.run()
        engine_kwargs.run()
        assert engine_spec.activation_log == engine_kwargs.activation_log
        assert engine_spec.metrics == engine_kwargs.metrics

    def test_spec_file_load(self, tmp_path):
        spec = self.SPECS[0]
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        assert ExperimentSpec.load(str(path)) == spec

    def test_invalid_json_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ExperimentSpec.from_json("{nope")

    def test_missing_spec_file_is_a_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            ExperimentSpec.load(str(tmp_path / "missing.json"))

    def test_non_dict_sections_are_configuration_errors(self):
        payload = self.SPECS[0].to_dict()
        payload["scheduler"] = "random"  # hand-edited: string, not object
        with pytest.raises(ConfigurationError, match="section 'scheduler'"):
            ExperimentSpec.from_dict(payload)

    def test_spec_calls_reject_extra_engine_kwargs(self):
        # A spec carries its own limits/options: silently discarding an
        # explicit max_steps would drop the caller's run limit.
        spec = self.SPECS[0]
        with pytest.raises(ConfigurationError, match="max_steps"):
            run_experiment(spec, max_steps=1)
        with pytest.raises(ConfigurationError, match="validate_enabledness"):
            build_engine(spec, validate_enabledness=True)
        with pytest.raises(ConfigurationError, match="do not pass one"):
            run_experiment(spec, spec.build_placement())
        # Passing the signature default explicitly stays allowed (the
        # spec decides, exactly as when the kwarg is omitted).
        assert run_experiment(spec, max_steps=None).ok

    def test_from_dict_rejects_unknown_keys(self):
        payload = self.SPECS[0].to_dict()
        payload["extra"] = 1
        with pytest.raises(ConfigurationError, match="unknown keys"):
            ExperimentSpec.from_dict(payload)

    def test_from_dict_requires_algorithm_and_placement(self):
        with pytest.raises(ConfigurationError, match="missing required key"):
            ExperimentSpec.from_dict({"algorithm": "unknown"})

    def test_spec_engine_honours_engine_options(self):
        spec = ExperimentSpec(
            algorithm="known_k_full",
            placement=PlacementSpec(kind="distances", distances=(3, 5, 4)),
            collect_metrics=False,
            max_steps=50_000,
        )
        engine = spec.build_engine()
        engine.run()
        assert engine.metrics.total_moves == 0  # metrics stayed empty
        engine.fork()  # every engine forks

    def test_removed_record_views_option_still_loads(self):
        # Specs written while the engine had a record_views option load
        # with either value, hash as false and run identically.
        spec = self.SPECS[1]
        payload = spec.to_dict()
        assert payload["engine"]["record_views"] is False
        payload["engine"]["record_views"] = True
        legacy = ExperimentSpec.from_json(json.dumps(payload))
        assert legacy == spec
        assert legacy.content_hash() == spec.content_hash()
        assert legacy.run().row() == spec.run().row()

    def test_run_method_delegates(self):
        spec = self.SPECS[1]
        assert spec.run().row() == run_experiment(spec).row()

    def test_mc_accepts_registry_resolved_spec_instances(self):
        # The checker consumes the same registry the specs validate
        # against, so a spec's algorithm/placement drive it directly.
        from repro.mc import check_interleavings

        spec = ExperimentSpec(
            algorithm="unknown",
            placement=PlacementSpec(kind="distances", distances=(2, 4)),
        )
        result = check_interleavings(spec.algorithm, spec.build_placement())
        assert result.ok


class TestJsonShape:
    def test_to_json_sections(self):
        payload = json.loads(TestSpecDrivenRuns.SPECS[0].to_json())
        assert set(payload) == {
            "algorithm", "placement", "scheduler", "engine", "limits"
        }
        assert payload["scheduler"] == {"spec": "random", "seed": 5}
        assert payload["placement"]["kind"] == "random"
        assert payload["limits"] == {"max_steps": None}

    def test_missing_sections_take_defaults(self):
        spec = ExperimentSpec.from_dict(
            {
                "algorithm": "unknown",
                "placement": {"kind": "distances", "distances": [3, 5]},
            }
        )
        assert spec.scheduler == "sync"
        assert spec.scheduler_seed == 0
        assert spec.max_steps is None
        assert spec.collect_metrics is True
