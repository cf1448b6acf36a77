"""Tests for the typed algorithm/scheduler registries and spec strings."""

from __future__ import annotations

import random
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import build_engine
from repro.registry import (
    SchedulerSpec,
    algorithm_names,
    build_scheduler,
    format_scheduler_spec,
    get_algorithm,
    get_scheduler,
    parse_scheduler_spec,
    registry_dump,
    scheduler_names,
)
from repro.ring.placement import random_placement
from repro.sim.scheduler import (
    BurstScheduler,
    ChaosScheduler,
    LaggardScheduler,
    RandomScheduler,
    ReplayScheduler,
    SynchronousScheduler,
)


class TestAlgorithmRegistry:
    def test_experiment_names_exclude_selftest(self):
        assert algorithm_names() == [
            "known_k_full",
            "known_k_logspace",
            "known_n_full",
            "unknown",
        ]

    def test_selftest_names_opt_in(self):
        assert "wake_race" in algorithm_names(include_selftest=True)
        assert get_algorithm("wake_race").selftest is True

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigurationError, match="known_k_full"):
            get_algorithm("nope")

    def test_table1_metadata(self):
        info = get_algorithm("known_k_logspace")
        assert info.knowledge == "k"
        assert info.bounds.memory == "O(log n)"
        assert info.bounds.time == "O(n log k)"
        assert info.halts is True
        relaxed = get_algorithm("unknown")
        assert relaxed.halts is False
        assert relaxed.knowledge == "none"
        assert relaxed.bounds.memory == "O((k/l) log(n/l))"
        assert relaxed.bounds.time == "O(n/l)"

    def test_selftest_agent_shares_the_logspace_bounds(self):
        logspace = get_algorithm("known_k_logspace").bounds
        assert get_algorithm("wake_race").bounds is logspace

    def test_ceilings_keep_the_table1_constants(self):
        assert get_algorithm("known_k_full").bounds.max_moves(24, 4) == 288
        assert get_algorithm("known_n_full").bounds.max_ideal_time(24, 4) == 77
        logspace = get_algorithm("known_k_logspace").bounds
        assert logspace.max_ideal_time(24, 5) == 154
        assert logspace.max_moves(24, 5) == 480
        relaxed = get_algorithm("unknown").bounds
        assert relaxed.max_moves(24, 4) == 1344
        assert relaxed.max_ideal_time(24, 4) == 480

    def test_make_agents_respects_knowledge(self):
        k_aware = get_algorithm("known_k_full").make_agents(3)
        assert len(k_aware) == 3 and all(agent.k == 3 for agent in k_aware)
        n_aware = get_algorithm("known_n_full").make_agents(3, ring_size=24)
        assert all(agent.n == 24 for agent in n_aware)

    def test_agents_are_fresh_instances(self):
        info = get_algorithm("unknown")
        assert not set(info.make_agents(3)) & set(info.make_agents(3))


class TestSchedulerRegistry:
    def test_registered_names(self):
        assert scheduler_names() == [
            "burst",
            "chaos",
            "laggard",
            "random",
            "replay",
            "sync",
        ]

    def test_classes_and_time_semantics(self):
        assert get_scheduler("sync").cls is SynchronousScheduler
        assert get_scheduler("sync").counts_time is True
        for name, cls in [
            ("random", RandomScheduler),
            ("laggard", LaggardScheduler),
            ("burst", BurstScheduler),
            ("chaos", ChaosScheduler),
            ("replay", ReplayScheduler),
        ]:
            info = get_scheduler(name)
            assert info.cls is cls
            assert info.counts_time is False

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigurationError, match="laggard"):
            get_scheduler("nope")

    def test_defaults_match_historical_sweep_factories(self):
        # The pre-registry SCHEDULER_SPECS table pinned these parameters;
        # registry defaults must keep archived sweep rows reproducible.
        assert build_scheduler("laggard", seed=5).describe() == (
            "LaggardScheduler(laggards=[0], patience=100)"
        )
        assert build_scheduler("burst", seed=5).describe() == "BurstScheduler(burst=40)"
        assert build_scheduler("chaos", seed=5).describe() == "ChaosScheduler(epoch=30)"

    def test_context_seed_flows_into_rng(self):
        enabled = list(range(50))
        for seed in (0, 7):
            via_registry = build_scheduler("random", seed=seed)
            direct = RandomScheduler(seed=seed)
            assert [via_registry.next_batch(enabled) for _ in range(20)] == [
                direct.next_batch(enabled) for _ in range(20)
            ]

    def test_pinned_seed_beats_context_seed(self):
        scheduler = build_scheduler("random:seed=3", seed=999)
        assert scheduler.describe() == "RandomScheduler(seed=3)"


class TestSpecStrings:
    ROUND_TRIPS = [
        "sync",
        "random",
        "random:seed=7",
        "laggard:victims=0,patience=5,seed=3",
        "laggard:victims=0-2-5",
        "burst:burst=10",
        "chaos:epoch=4,seed=1",
        "replay:log=0-1-1-0",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIPS)
    def test_parse_format_parse_round_trip(self, text):
        spec = parse_scheduler_spec(text)
        formatted = format_scheduler_spec(spec)
        assert parse_scheduler_spec(formatted) == spec
        # The canonical form is a fixed point of another round trip.
        assert format_scheduler_spec(parse_scheduler_spec(formatted)) == formatted

    def test_canonical_form_is_normalised(self):
        # Alias, whitespace and argument order all normalise away.
        messy = " laggard: seed=3 , victim=0 , patience=5 "
        assert format_scheduler_spec(messy) == "laggard:victims=0,patience=5,seed=3"

    def test_alias_and_canonical_name_parse_identically(self):
        assert parse_scheduler_spec("laggard:victim=4") == parse_scheduler_spec(
            "laggard:victims=4"
        )

    def test_int_list_values(self):
        spec = parse_scheduler_spec("laggard:victims=0-2-5")
        assert spec.arg_dict()["victims"] == (0, 2, 5)

    def test_parsed_spec_passthrough(self):
        spec = parse_scheduler_spec("burst:burst=9")
        assert parse_scheduler_spec(spec) is spec

    def test_spec_objects_are_hashable_and_comparable(self):
        a = parse_scheduler_spec("laggard:patience=5,victim=0")
        b = parse_scheduler_spec("laggard:victims=0,patience=5")
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize(
        "bad, fragment",
        [
            ("nope", "unknown scheduler"),
            ("nope:seed=1", "unknown scheduler"),
            ("", "bad scheduler spec"),
            ("laggard:wat=1", "no parameter 'wat'"),
            ("laggard:patience", "not key=value"),
            ("laggard:patience=abc", "bad value 'abc'"),
            ("laggard:patience=1,patience=2", "given twice"),
            ("laggard:victims=x-y", "bad value 'x-y'"),
            ("sync:seed=1", "no parameter 'seed'"),
            # '-' is the list separator, so a sign would silently parse
            # as a different id list: reject stray/leading separators.
            ("laggard:victims=-1", "bad value '-1'"),
            ("laggard:victims=1--2", "bad value '1--2'"),
            ("laggard:victims=1-", "bad value '1-'"),
        ],
    )
    def test_bad_specs_explain_themselves(self, bad, fragment):
        with pytest.raises(ConfigurationError, match=fragment.replace("(", "\\(")):
            parse_scheduler_spec(bad)

    def test_unknown_scheduler_in_spec_object(self):
        with pytest.raises(ConfigurationError):
            parse_scheduler_spec(SchedulerSpec(name="nope"))

    def test_build_from_spec_string(self):
        scheduler = build_scheduler("laggard:victims=1-2,patience=4", seed=9)
        assert scheduler.describe() == (
            "LaggardScheduler(laggards=[1, 2], patience=4)"
        )

    def test_replay_spec_builds_replay_scheduler(self):
        scheduler = build_scheduler("replay:log=0-1-0")
        assert isinstance(scheduler, ReplayScheduler)
        assert scheduler.next_batch([0, 1]) == [0]
        assert scheduler.next_batch([0, 1]) == [1]

    def test_empty_int_list_round_trips(self):
        spec = parse_scheduler_spec("replay:log=")
        assert spec.arg_dict()["log"] == ()
        assert parse_scheduler_spec(format_scheduler_spec(spec)) == spec

    def test_register_scheduler_without_docstring_gets_empty_description(self):
        from repro.registry import _SCHEDULERS, register_scheduler
        from repro.sim.scheduler import Scheduler

        @register_scheduler("undocumented_test_scheduler")
        class Undocumented(Scheduler):
            pass

        try:
            info = get_scheduler("undocumented_test_scheduler")
            assert info.description == ""
        finally:
            del _SCHEDULERS["undocumented_test_scheduler"]


class TestRegistryDump:
    def test_dump_shape(self):
        dump = registry_dump()
        algorithms = {entry["name"]: entry for entry in dump["algorithms"]}
        schedulers = {entry["name"]: entry for entry in dump["schedulers"]}
        assert set(algorithms) >= set(algorithm_names(include_selftest=True))
        assert set(schedulers) == set(scheduler_names())
        assert algorithms["known_k_full"]["memory_bound"] == "O(k log n)"
        assert algorithms["wake_race"]["selftest"] is True
        laggard = schedulers["laggard"]
        params = {param["name"]: param for param in laggard["params"]}
        assert params["victims"]["kind"] == "int_list"
        assert params["victims"]["aliases"] == ["victim"]
        assert params["patience"]["default"] == 100
        assert params["seed"]["default"] is None  # context seed

    def test_dump_is_json_serialisable(self):
        import json

        json.dumps(registry_dump())


class TestSchedulerSpecDifferential:
    """Spec-string construction is behaviourally identical to direct calls."""

    CASES = [
        ("sync", lambda seed: SynchronousScheduler()),
        ("random", lambda seed: RandomScheduler(seed=seed)),
        ("laggard:victims=0,patience=6", lambda seed: LaggardScheduler(
            [0], patience=6, seed=seed
        )),
        ("burst:burst=11", lambda seed: BurstScheduler(burst=11, seed=seed)),
        ("chaos:epoch=9", lambda seed: ChaosScheduler(epoch=9, seed=seed)),
    ]

    @pytest.mark.parametrize("text, direct", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("algorithm", ["known_k_full", "unknown"])
    def test_byte_identical_executions(self, text, direct, algorithm):
        placement = random_placement(20, 4, random.Random(13))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no deprecation on the new path
            via_spec = build_engine(
                algorithm, placement, scheduler=build_scheduler(text, seed=21)
            )
        via_kwargs = build_engine(algorithm, placement, scheduler=direct(21))
        via_spec.run()
        via_kwargs.run()
        assert via_spec.activation_log == via_kwargs.activation_log
        assert via_spec.metrics == via_kwargs.metrics
        assert via_spec.final_positions() == via_kwargs.final_positions()
