"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import _parse_scheduler_list, build_parser, main


class TestParsing:
    def test_grid_parsing(self):
        parser = build_parser()
        args = parser.parse_args(["psweep", "--grid", "64x8,128x16"])
        assert args.grid == [(64, 8), (128, 16)]

    def test_bad_grid_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["psweep", "--grid", "64-8"])

    def test_int_list_parsing(self):
        parser = build_parser()
        args = parser.parse_args(["symmetry", "--degrees", "1,2,4"])
        assert args.degrees == [1, 2, 4]

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scheduler_list_legacy_commas(self):
        assert _parse_scheduler_list("sync,random,chaos") == [
            "sync",
            "random",
            "chaos",
        ]

    def test_scheduler_list_spec_strings_split_on_semicolons(self):
        assert _parse_scheduler_list("sync;laggard:victims=0,patience=5") == [
            "sync",
            "laggard:victims=0,patience=5",
        ]
        assert _parse_scheduler_list("laggard:victim=1,patience=3") == [
            "laggard:victim=1,patience=3"
        ]


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "known_k_full" in output
        assert "unknown" in output

    def test_run_random_placement(self, capsys):
        assert main(["run", "--algorithm", "known_k_full", "--n", "24", "--k", "4"]) == 0
        assert "True" in capsys.readouterr().out

    def test_run_explicit_distances(self, capsys):
        code = main(["run", "--distances", "5,7,4,8", "--render"])
        output = capsys.readouterr().out
        assert code == 0
        assert "gaps: 6 x4" in output

    def test_run_with_adversarial_scheduler(self, capsys):
        code = main(
            [
                "run",
                "--algorithm",
                "known_k_logspace",
                "--n",
                "20",
                "--k",
                "4",
                "--scheduler",
                "laggard",
            ]
        )
        assert code == 0

    def test_run_with_parameterised_scheduler_spec(self, capsys):
        code = main(
            [
                "run",
                "--n", "20", "--k", "4",
                "--scheduler", "laggard:victim=1,patience=5,seed=2",
            ]
        )
        assert code == 0
        assert "True" in capsys.readouterr().out

    def test_run_bad_scheduler_spec_is_an_error(self, capsys):
        code = main(["run", "--scheduler", "laggard:wat=1"])
        assert code == 2
        assert "no parameter" in capsys.readouterr().err

    def test_psweep_summary_charts_each_series(self, capsys):
        code = main(
            ["psweep", "--grid", "24x4,48x4,24x6", "--trials", "2",
             "--jobs", "1", "--summary"]
        )
        output = capsys.readouterr().out
        assert code == 0
        # k=4 has two sizes: moves and ideal time charts; k=6 has one.
        assert output.count("known_k_full k=4 sync:") == 2
        assert "k=6 sync:" not in output
        assert "log-log slope of total moves vs n" in output
        assert "log-log slope of ideal time vs n" in output

    def test_symmetry(self, capsys):
        code = main(["symmetry", "--n", "48", "--k", "8", "--degrees", "1,2"])
        output = capsys.readouterr().out
        assert code == 0
        assert "Theorem 6" in output

    def test_impossibility(self, capsys):
        code = main(["impossibility", "--distances", "5,7,4,8"])
        output = capsys.readouterr().out
        assert code == 0  # construction must fail uniformity => exit 0
        assert "False" in output

    def test_lower_bound(self, capsys):
        code = main(["lower-bound", "--sizes", "40x8"])
        output = capsys.readouterr().out
        assert code == 0
        assert "optimal" in output

    def test_error_path_returns_2(self, capsys):
        # k > n is a ConfigurationError -> exit code 2, message on stderr.
        code = main(["run", "--n", "4", "--k", "9"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestListCommand:
    def test_list_shows_schedulers_and_bounds(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "O(k log n)" in output
        assert "laggard" in output
        assert "wake_race" not in output  # self-test agents stay hidden

    def test_list_json_dumps_both_registries(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {entry["name"] for entry in payload["algorithms"]}
        assert {"known_k_full", "unknown", "wake_race"} <= names
        laggard = next(
            entry for entry in payload["schedulers"] if entry["name"] == "laggard"
        )
        assert [param["name"] for param in laggard["params"]] == [
            "victims",
            "patience",
            "seed",
        ]


class TestSpecCommand:
    RUN_FLAGS = [
        "--algorithm", "unknown",
        "--n", "24", "--k", "4", "--seed", "3",
        "--scheduler", "laggard:victim=1,patience=7",
        "--scheduler-seed", "9",
    ]

    def test_spec_emits_canonical_json(self, capsys):
        assert main(["spec", *self.RUN_FLAGS]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "unknown"
        assert payload["scheduler"] == {
            "spec": "laggard:victims=1,patience=7",
            "seed": 9,
        }
        assert payload["placement"] == {
            "kind": "random", "ring_size": 24, "agent_count": 4, "seed": 3,
        }

    def test_spec_file_drives_run_identically(self, capsys, tmp_path):
        path = tmp_path / "experiment.json"
        assert main(["spec", *self.RUN_FLAGS, "--output", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", "--spec", str(path)]) == 0
        via_spec = capsys.readouterr().out
        assert main(["run", *self.RUN_FLAGS]) == 0
        via_flags = capsys.readouterr().out
        assert via_spec == via_flags

    def test_spec_round_trips_through_experiment_spec(self, capsys):
        from repro.spec import ExperimentSpec

        assert main(["spec", *self.RUN_FLAGS]) == 0
        text = capsys.readouterr().out
        spec = ExperimentSpec.from_json(text)
        assert ExperimentSpec.from_json(spec.to_json()) == spec


#: What ``repro mc`` appends to its closing line when the search ran
#: with sleep-set POR.
REDUCED_GRAPH = (
    ", with livelock cycles searched on the sleep-set-reduced graph only "
    "(--no-por searches the full graph)"
)


class TestMcCommand:
    def test_mc_exhausts_small_instance(self, capsys):
        code = main(["mc", "--algorithm", "known_k_full", "--n", "6", "--k", "2"])
        output = capsys.readouterr().out
        assert code == 0
        assert "no violations" in output
        assert REDUCED_GRAPH in output
        assert "deduped" in output
        assert "all 3 rotation-distinct placements" in output

    def test_mc_json_document(self, capsys):
        import json

        code = main(
            ["mc", "--algorithm", "known_k_full", "--n", "6", "--k", "2", "--json"]
        )
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        assert document["ok"] is True
        assert document["por"] is True
        assert document["totals"]["placements"] == 3
        assert len(document["results"]) == 3
        assert all(cell["verdict"] == "ok" for cell in document["results"])

    def test_mc_closing_line_names_the_searched_graph(self, capsys):
        closing = (
            "no violations: every fair schedule of every checked "
            "configuration deploys uniformly (exhaustive at n=6, k=2)"
        )
        assert main(["mc", "--n", "6", "--k", "2", "--no-por"]) == 0
        full = capsys.readouterr().out
        assert full.endswith(closing + "\n")
        assert main(["mc", "--n", "6", "--k", "2", "--links", "delay=1"]) == 0
        faulty = capsys.readouterr().out
        assert faulty.endswith(closing + "\n")  # faults turn POR off
        assert main(["mc", "--n", "6", "--k", "2"]) == 0
        reduced = capsys.readouterr().out
        assert reduced.endswith(f"{closing}{REDUCED_GRAPH}\n")

    def test_mc_no_por_doubles_transitions_only(self, capsys):
        import json

        main(["mc", "--n", "6", "--k", "2", "--json"])
        reduced = json.loads(capsys.readouterr().out)
        main(["mc", "--n", "6", "--k", "2", "--json", "--no-por"])
        full = json.loads(capsys.readouterr().out)
        assert full["totals"]["states"] == reduced["totals"]["states"]
        assert full["totals"]["transitions"] > reduced["totals"]["transitions"]
        assert full["totals"]["por_skipped"] == 0

    def test_mc_jobs_matches_serial(self, capsys):
        import json

        main(["mc", "--n", "6", "--k", "2", "--json"])
        serial = json.loads(capsys.readouterr().out)
        code = main(["mc", "--n", "6", "--k", "2", "--json", "--jobs", "2"])
        parallel = json.loads(capsys.readouterr().out)
        assert code == 0
        serial.pop("jobs"), parallel.pop("jobs")
        assert parallel == serial

    def test_mc_rejects_bad_jobs_and_bare_resume(self, capsys):
        assert main(["mc", "--n", "6", "--k", "2", "--jobs", "0"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["mc", "--n", "6", "--k", "2", "--resume"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_mc_explicit_distances(self, capsys):
        code = main(["mc", "--algorithm", "unknown", "--distances", "2,4"])
        output = capsys.readouterr().out
        assert code == 0
        assert "1 explicit configuration" in output

    def test_mc_truncated_search_fails(self, capsys):
        code = main(["mc", "--n", "6", "--k", "2", "--max-states", "5"])
        output = capsys.readouterr().out
        assert code == 1
        assert "truncated" in output

    def test_mc_rejects_k_larger_than_n(self, capsys):
        code = main(["mc", "--n", "4", "--k", "6"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_mc_from_spec_file(self, capsys, tmp_path):
        from repro.spec import ExperimentSpec, PlacementSpec

        path = tmp_path / "mc.json"
        spec = ExperimentSpec(
            algorithm="unknown",
            placement=PlacementSpec(kind="distances", distances=(2, 4)),
        )
        path.write_text(spec.to_json(), encoding="utf-8")
        code = main(["mc", "--spec", str(path)])
        output = capsys.readouterr().out
        assert code == 0
        assert "1 configuration from spec" in output
        assert "no violations" in output

    def test_mc_jobs_and_store_change_no_result(self, capsys, tmp_path):
        args = ["mc", "--algorithm", "unknown", "--distances", "2,4", "--json"]
        documents = []
        for extra in ([], ["--jobs", "2"], ["--store", str(tmp_path)]):
            assert main(args + extra) == 0
            captured = capsys.readouterr()
            assert captured.err == ""  # one search: nothing to qualify
            documents.append(json.loads(captured.out))
        results = [document["results"] for document in documents]
        assert results[0] == results[1] == results[2]
        assert "liveness" not in results[0][0]

    def test_mc_spilled_closing_line_is_the_full_claim(self, capsys, tmp_path):
        code = main(
            ["mc", "--algorithm", "unknown", "--distances", "2,4",
             "--store", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "every fair schedule of every checked configuration deploys" in (
            captured.out
        )
        assert REDUCED_GRAPH in captured.out
        assert "liveness" not in captured.out

    def test_mc_grid_pool_notes_dropped_progress(self, capsys):
        code = main(["mc", "--n", "6", "--k", "2", "--jobs", "2", "--progress"])
        captured = capsys.readouterr()
        assert code == 0
        assert "note: --progress" in captured.err
        assert "every fair schedule of every checked configuration deploys" in (
            captured.out
        )
        assert REDUCED_GRAPH in captured.out

    def test_mc_selftest_algorithm_is_reachable(self, capsys):
        # wake_race registers with selftest=True: hidden from `run`
        # choices but addressable by the checker, which finds its bug.
        code = main(["mc", "--algorithm", "wake_race", "--distances", "1,2,5"])
        output = capsys.readouterr().out
        assert code == 1
        assert "VIOLATION" in output
        assert "wake_race" in output


class TestTimelineCommand:
    def test_timeline_renders(self, capsys):
        code = main(
            ["timeline", "--distances", "1,2,4,5", "--sample-every", "4", "--limit", "8"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "t=   0 |" in output
        assert "legend" in output

    def test_timeline_random_placement(self, capsys):
        code = main(["timeline", "--n", "12", "--k", "3", "--limit", "5"])
        assert code == 0
        assert "configuration" in capsys.readouterr().out


class TestErrorPaths:
    """Every bad input must exit non-zero with a one-line diagnostic."""

    @staticmethod
    def _assert_one_line_error(capsys, code):
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_run_malformed_spec_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{definitely not json")
        code = main(["run", "--spec", str(bad)])
        self._assert_one_line_error(capsys, code)

    def test_run_spec_wrong_shape(self, capsys, tmp_path):
        bad = tmp_path / "shape.json"
        bad.write_text('{"algorithm": "known_k_full", "placement": {"kind": "x"}}')
        code = main(["run", "--spec", str(bad)])
        self._assert_one_line_error(capsys, code)

    def test_run_missing_spec_file(self, capsys):
        code = main(["run", "--spec", "/no/such/spec.json"])
        self._assert_one_line_error(capsys, code)

    def test_unknown_scheduler_spec_name(self, capsys):
        code = main(["run", "--n", "8", "--k", "2", "--scheduler", "warpdrive"])
        self._assert_one_line_error(capsys, code)
        code = main(["run", "--scheduler", "laggard:victims=1--2"])
        self._assert_one_line_error(capsys, code)

    def test_psweep_scheduler_spec_errors(self, capsys):
        code = main(["psweep", "--grid", "8x2", "--schedulers", "warpdrive"])
        self._assert_one_line_error(capsys, code)

    def test_psweep_resume_without_store_conflicts(self, capsys):
        code = main(["psweep", "--grid", "8x2", "--resume"])
        self._assert_one_line_error(capsys, code)

    def test_psweep_no_resume_without_store_conflicts(self, capsys):
        code = main(["psweep", "--grid", "8x2", "--no-resume"])
        self._assert_one_line_error(capsys, code)

    def test_psweep_resume_with_store_is_fine(self, capsys, tmp_path):
        code = main(
            ["psweep", "--grid", "8x2", "--trials", "1", "--jobs", "1",
             "--store", str(tmp_path / "store"), "--resume"]
        )
        assert code == 0
        assert "cached" in capsys.readouterr().out


class TestQueryHashPrefix:
    def test_ambiguous_prefix_lists_all_matches_with_a_message(
        self, capsys, tmp_path
    ):
        from repro.experiments.runner import run_experiment
        from repro.spec import ExperimentSpec, PlacementSpec
        from repro.store import RunRecord, RunStore

        store = RunStore(tmp_path / "store")
        spec = ExperimentSpec(
            algorithm="known_k_full",
            placement=PlacementSpec(kind="random", ring_size=8, agent_count=2, seed=0),
        )
        payload = run_experiment(spec).to_record(spec).to_dict()
        for content_hash in ("aa" * 32, "ab" * 32, "cd" * 32):
            record = dict(payload, content_hash=content_hash)
            store.put(RunRecord.from_dict(record))

        code = main(["query", "--store", str(store.root), "--hash", "a"])
        output = capsys.readouterr().out
        assert code == 0
        assert "hash prefix 'a' is ambiguous: 2 archived runs match" in output
        assert "listing all of them" in output
        assert "2 of 3 archived runs matched" in output

    def test_ambiguity_note_goes_to_stderr_in_json_mode(self, capsys, tmp_path):
        import json as json_module

        from repro.experiments.runner import run_experiment
        from repro.spec import ExperimentSpec, PlacementSpec
        from repro.store import RunRecord, RunStore

        store = RunStore(tmp_path / "store")
        spec = ExperimentSpec(
            algorithm="known_k_full",
            placement=PlacementSpec(kind="random", ring_size=8, agent_count=2, seed=0),
        )
        payload = run_experiment(spec).to_record(spec).to_dict()
        for content_hash in ("aa" * 32, "ab" * 32):
            store.put(RunRecord.from_dict(dict(payload, content_hash=content_hash)))

        code = main(
            ["query", "--store", str(store.root), "--hash", "a", "--json"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "ambiguous" in captured.err
        records = json_module.loads(captured.out)  # stdout stays pure JSON
        assert len(records) == 2

    def test_unique_prefix_prints_no_ambiguity_note(self, capsys, tmp_path):
        from repro.experiments.runner import run_experiment
        from repro.spec import ExperimentSpec, PlacementSpec
        from repro.store import RunRecord, RunStore

        store = RunStore(tmp_path / "store")
        spec = ExperimentSpec(
            algorithm="known_k_full",
            placement=PlacementSpec(kind="random", ring_size=8, agent_count=2, seed=0),
        )
        payload = run_experiment(spec).to_record(spec).to_dict()
        for content_hash in ("aa" * 32, "cd" * 32):
            store.put(RunRecord.from_dict(dict(payload, content_hash=content_hash)))
        code = main(["query", "--store", str(store.root), "--hash", "cd"])
        output = capsys.readouterr().out
        assert code == 0
        assert "ambiguous" not in output
        assert "1 of 2 archived runs matched" in output

    def test_filters_that_disambiguate_suppress_the_note(self, capsys, tmp_path):
        import copy

        from repro.experiments.runner import run_experiment
        from repro.spec import ExperimentSpec, PlacementSpec
        from repro.store import RunRecord, RunStore

        store = RunStore(tmp_path / "store")
        spec = ExperimentSpec(
            algorithm="known_k_full",
            placement=PlacementSpec(kind="random", ring_size=8, agent_count=2, seed=0),
        )
        payload = run_experiment(spec).to_record(spec).to_dict()
        for content_hash, algorithm in (
            ("aa" * 32, "known_k_full"),
            ("ab" * 32, "unknown"),
        ):
            record = copy.deepcopy(payload)
            record["content_hash"] = content_hash
            record["result"]["algorithm"] = algorithm
            store.put(RunRecord.from_dict(record))
        assert store.resolve_prefix("a") == ["aa" * 32, "ab" * 32]
        # The prefix alone matches two records, but the algorithm filter
        # narrows the listing to one — the ambiguity note must agree
        # with what is actually listed, so it stays silent.
        code = main(
            ["query", "--store", str(store.root), "--hash", "a",
             "--algorithm", "known_k_full"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "ambiguous" not in output
        assert "1 of 2 archived runs matched" in output


class TestQueryPagination:
    @staticmethod
    def _seed_store(tmp_path, count=5):
        from repro.experiments.runner import run_experiment
        from repro.spec import ExperimentSpec, PlacementSpec
        from repro.store import RunRecord, RunStore

        store = RunStore(tmp_path / "store")
        spec = ExperimentSpec(
            algorithm="known_k_full",
            placement=PlacementSpec(
                kind="random", ring_size=8, agent_count=2, seed=0
            ),
        )
        payload = run_experiment(spec).to_record(spec).to_dict()
        for index in range(count):  # hashes 0000…, 1000…, … (< 10 of them)
            record = dict(
                payload, content_hash=f"{index:x}".ljust(64, "0")
            )
            store.put(RunRecord.from_dict(record))
        return store

    def test_limit_and_offset_page_in_hash_order(self, capsys, tmp_path):
        store = self._seed_store(tmp_path)
        code = main(
            ["query", "--store", str(store.root), "--limit", "2",
             "--offset", "2"]
        )
        output = capsys.readouterr().out
        assert code == 0
        # Hashes 2 and 3 of five, in content-hash order.
        assert "2".ljust(16, "0") in output and "3".ljust(16, "0") in output
        assert "1".ljust(16, "0") not in output
        assert "4".ljust(16, "0") not in output
        assert "page: 2 of 5 matched runs (offset 2, 5 archived)" in output

    def test_pages_tile_the_json_listing(self, capsys, tmp_path):
        import json as json_module

        store = self._seed_store(tmp_path)
        seen = []
        for offset in (0, 2, 4):
            assert main(
                ["query", "--store", str(store.root), "--limit", "2",
                 "--offset", str(offset), "--json"]
            ) == 0
            seen += [
                record["content_hash"]
                for record in json_module.loads(capsys.readouterr().out)
            ]
        assert seen == store.hashes()  # no gaps, no repeats

    def test_bad_pagination_arguments_are_errors(self, capsys, tmp_path):
        store = self._seed_store(tmp_path, count=1)
        for flags in (["--limit", "0"], ["--offset", "-1"]):
            code = main(["query", "--store", str(store.root), *flags])
            captured = capsys.readouterr()
            assert code != 0
            assert "must be >=" in captured.err

    def test_unpaginated_output_keeps_the_legacy_tail(self, capsys, tmp_path):
        store = self._seed_store(tmp_path, count=3)
        assert main(["query", "--store", str(store.root)]) == 0
        output = capsys.readouterr().out
        assert "3 of 3 archived runs matched" in output
        assert "page:" not in output

    def test_failures_listing(self, capsys, tmp_path):
        import json as json_module

        store = self._seed_store(tmp_path, count=1)
        store.failures.put(
            "ee" * 32, {"content_hash": "ee" * 32, "kind": "assertion"}
        )
        assert main(
            ["query", "--store", str(store.root), "--failures"]
        ) == 0
        output = capsys.readouterr().out
        assert "ee" * 8 in output
        assert "assertion" in output
        assert main(
            ["query", "--store", str(store.root), "--failures", "--json"]
        ) == 0
        listing = json_module.loads(capsys.readouterr().out)
        assert [item["content_hash"] for item in listing] == ["ee" * 32]

    def test_empty_quarantine_listing(self, capsys, tmp_path):
        store = self._seed_store(tmp_path, count=1)
        assert main(
            ["query", "--store", str(store.root), "--quarantine"]
        ) == 0
        assert "0" in capsys.readouterr().out
