"""Link-fault models threaded through the verification ladder.

The paper assumes reliable FIFO links; :mod:`repro.ring.faults` opens
that assumption with a frozen, content-hashable :class:`LinkSpec`
(bounded delay, bounded loss, bounded duplication).  These tests pin
the two promises that make faulty experiments first-class:

* **determinism** — every fault decision is a blake2b function of
  ``(seed, kind, global move ordinal)``, so faulty runs replay bit for
  bit, fork exactly, and model-check with jobs-invariant verdicts;
* **identity off** — ``LinkSpec(0, 0, 0)`` and no spec at all are the
  same experiment: byte-identical activation logs, metrics, packed
  states, content hashes and store digests across every algorithm and
  every scheduler family (the fault-free identity gate), so archived
  reliable runs keep their hashes forever.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.experiments.runner import build_engine, run_experiment
from repro.fuzz.coverage import enabled_pattern
from repro.mc.checker import check_interleavings
from repro.mc.parallel import check_frontier
from repro.registry import algorithm_names, build_scheduler, scheduler_names
from repro.ring.faults import (
    PHANTOM,
    LinkSpec,
    fault_fraction,
    format_link_spec,
    is_link_actor,
    link_actor,
    link_node,
    parse_link_spec,
)
from repro.ring.placement import random_placement
from repro.sim.batch import batch_supported
from repro.spec import ExperimentSpec, PlacementSpec
from repro.store import RunStore, cached_run


def _placement(n=8, k=2, seed=0):
    return random_placement(n, k, random.Random(seed))


def _spec(links=None, n=8, k=2, seed=0, algorithm="unknown", scheduler="sync"):
    return ExperimentSpec(
        algorithm=algorithm,
        placement=PlacementSpec(kind="random", ring_size=n, agent_count=k, seed=seed),
        scheduler=scheduler,
        links=links,
    )


# ---------------------------------------------------------------------------
# LinkSpec: the value object
# ---------------------------------------------------------------------------


class TestLinkSpec:
    def test_roundtrip(self):
        spec = LinkSpec(delay=2, loss=1, dup=3, seed=7)
        assert LinkSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict() == {"delay": 2, "loss": 1, "dup": 3, "seed": 7}

    def test_defaults_are_inactive(self):
        assert not LinkSpec().active
        assert not LinkSpec(seed=9).active
        for field in ("delay", "loss", "dup"):
            assert LinkSpec(**{field: 1}).active

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinkSpec(delay=-1)
        with pytest.raises(ConfigurationError):
            LinkSpec(loss="2")  # type: ignore[arg-type]
        with pytest.raises(ConfigurationError):
            LinkSpec(dup=True)  # bool is not an int here
        with pytest.raises(ConfigurationError):
            LinkSpec.from_dict({"delya": 1})

    def test_parse_format_inverse(self):
        for text, expected in [
            ("delay=2,seed=7", LinkSpec(delay=2, seed=7)),
            ("delay=1,loss=1,dup=1", LinkSpec(1, 1, 1)),
            (" loss=3 , seed=0 ", LinkSpec(loss=3)),
        ]:
            spec = parse_link_spec(text)
            assert spec == expected
            assert parse_link_spec(format_link_spec(spec)) == spec

    def test_parse_rejects_noop_and_garbage(self):
        # A faulty-looking flag that injects nothing would silently test
        # the reliable model — rejected loudly instead.
        with pytest.raises(ReproError):
            parse_link_spec("seed=3")
        with pytest.raises(ReproError):
            parse_link_spec("delay")
        with pytest.raises(ReproError):
            parse_link_spec("delay=fast")
        with pytest.raises(ReproError):
            parse_link_spec("jitter=2")

    def test_format_of_inactive_is_empty(self):
        assert format_link_spec(None) == ""
        assert format_link_spec(LinkSpec()) == ""

    def test_draws_are_pure_functions(self):
        # Same (seed, kind, ordinal) -> same draw, everywhere, forever.
        assert fault_fraction(7, "loss", 3) == fault_fraction(7, "loss", 3)
        assert fault_fraction(7, "loss", 3) != fault_fraction(7, "dup", 3)
        assert fault_fraction(7, "loss", 3) != fault_fraction(8, "loss", 3)
        assert fault_fraction(7, "loss", 3) != fault_fraction(7, "loss", 4)
        spec = LinkSpec(delay=3, loss=1, dup=1, seed=5)
        for ordinal in range(64):
            assert 0 <= spec.draw_delay(ordinal) <= 3
            assert spec.draw_loss(ordinal) == spec.draw_loss(ordinal)
            assert spec.draw_dup(ordinal) == spec.draw_dup(ordinal)
        assert LinkSpec(delay=0).draw_delay(11) == 0

    def test_link_actor_codec(self):
        for node in range(6):
            actor = link_actor(node)
            assert actor < 0
            assert is_link_actor(actor)
            assert link_node(actor) == node
        assert not is_link_actor(0)
        assert not is_link_actor(3)


# ---------------------------------------------------------------------------
# Spec containers: normalisation and hash stability
# ---------------------------------------------------------------------------


class TestSpecThreading:
    def test_inactive_links_normalised_away(self):
        # LinkSpec(0,0,0) == reliable links: the spec container drops it
        # so equal experiments stay equal objects.
        spec = _spec(links=LinkSpec(seed=5))
        assert spec.links is None
        assert "links" not in spec.to_dict()

    def test_reliable_hash_untouched(self):
        # The invariant that keeps every archived store valid: adding
        # the links field must not move the hash of reliable specs.
        bare = _spec()
        inactive = _spec(links=LinkSpec())
        assert bare.content_hash() == inactive.content_hash()
        assert bare.to_dict() == inactive.to_dict()
        # Old serialised forms (no "links" key) still parse to the same
        # experiment.
        assert ExperimentSpec.from_dict(bare.to_dict()) == bare

    def test_active_links_roundtrip_and_distinguish(self):
        faulty = _spec(links=LinkSpec(delay=2, seed=7))
        assert faulty.links == LinkSpec(delay=2, seed=7)
        assert faulty.to_dict()["links"] == {"delay": 2, "loss": 0, "dup": 0, "seed": 7}
        assert ExperimentSpec.from_dict(faulty.to_dict()) == faulty
        assert faulty.content_hash() != _spec().content_hash()
        # Different fault seeds are different experiments.
        other_seed = _spec(links=LinkSpec(delay=2, seed=8))
        assert faulty.content_hash() != other_seed.content_hash()

    def test_links_must_be_a_linkspec(self):
        with pytest.raises(ConfigurationError):
            _spec(links={"delay": 1})  # type: ignore[arg-type]

    def test_batch_backend_gated(self):
        assert batch_supported(_spec(algorithm="known_k_full")) is None
        reason = batch_supported(
            _spec(algorithm="known_k_full", links=LinkSpec(delay=1))
        )
        assert reason == "link faults require the object engine"


# ---------------------------------------------------------------------------
# Engine semantics under faults
# ---------------------------------------------------------------------------


class TestFaultyEngine:
    def test_inactive_spec_builds_reliable_engine(self):
        engine = build_engine(
            "unknown", _placement(), build_scheduler("sync"), links=LinkSpec()
        )
        assert engine.links is None
        assert engine.ring.faults is None

    def test_delay_schedules_link_actors(self):
        engine = build_engine(
            "unknown",
            _placement(seed=3),
            build_scheduler("random", seed=3),
            validate_enabledness=True,
            links=LinkSpec(delay=2, seed=7),
        )
        engine.run()
        assert engine.quiescent
        log = engine.activation_log
        actors = [a for a in log if is_link_actor(a)]
        assert actors, "a delay-2 run never scheduled a link actor"
        assert all(-engine.ring.size <= a <= -1 for a in actors)
        # At quiescence every delivery drained: no buffered agents left.
        faults = engine.ring.faults
        assert all(not buffer for buffer in faults.buffers)
        assert faults.ordinal > 0

    def test_faulty_run_replays_bit_for_bit(self):
        def run():
            engine = build_engine(
                "unknown",
                _placement(seed=5),
                build_scheduler("chaos", seed=11),
                links=LinkSpec(delay=2, dup=1, seed=4),
            )
            engine.run()
            return engine.activation_log, engine.snapshot().packed()

        assert run() == run()

    def test_loss_budget_and_lost_agents(self):
        spec = LinkSpec(delay=1, loss=1, seed=0)
        saw_loss = False
        for seed in range(24):
            engine = build_engine(
                "unknown",
                _placement(n=10, k=3, seed=seed),
                build_scheduler("random", seed=seed),
                validate_enabledness=True,
                links=spec,
            )
            engine.run()
            faults = engine.ring.faults
            assert faults.loss_used <= spec.loss
            assert faults.loss_used == len(faults.lost)
            for agent_id in faults.lost:
                saw_loss = True
                assert agent_id in engine.agent_ids
                # A lost agent is nowhere on the ring: locate must fail
                # loudly, never silently report a stale position.
                with pytest.raises(ReproError):
                    engine.ring.locate(agent_id)
                assert agent_id not in engine.enabled_agents()
        assert saw_loss, "no seed in 24 ever consumed the loss budget"

    def test_dup_budget_and_phantom_consumption(self):
        spec = LinkSpec(delay=1, dup=2, seed=1)
        saw_dup = False
        for seed in range(16):
            engine = build_engine(
                "unknown",
                _placement(n=10, k=3, seed=seed),
                build_scheduler("random", seed=seed),
                validate_enabledness=True,
                links=spec,
            )
            engine.run()
            faults = engine.ring.faults
            assert faults.dup_used <= spec.dup
            saw_dup = saw_dup or faults.dup_used > 0
            # Quiescence means every phantom was consumed: none left at
            # any queue head or in any buffer.
            for node in range(engine.ring.size):
                contents = engine.ring.queue_contents(node)
                assert not contents or contents[0] != PHANTOM
            assert all(
                entry[0] != PHANTOM or entry[1] > 0
                for buffer in faults.buffers
                for entry in buffer
            )
        assert saw_dup, "no seed in 16 ever spawned a phantom"

    def test_fork_is_exact_under_faults(self):
        # The model checker's branch-on-fork must copy the fault state
        # exactly: both branches replay the same draws from the same
        # ordinal and land in the same packed state.
        engine = build_engine(
            "unknown",
            _placement(seed=2),
            build_scheduler("sync"),
            validate_enabledness=True,
            links=LinkSpec(delay=2, dup=1, seed=9),
        )
        engine.run_rounds(4)
        assert not engine.quiescent
        fork = engine.fork()
        for branch in (engine, fork):
            for _ in range(12):
                enabled = branch.enabled_agents()
                if not enabled:
                    break
                branch.step(enabled[0])
        assert engine.activation_log == fork.activation_log
        assert engine.snapshot().packed() == fork.snapshot().packed()
        assert engine.ring.faults.ordinal == fork.ring.faults.ordinal

    def test_enabledness_differential_across_specs(self):
        # The incremental enabled set must agree with the O(k) oracle
        # after every batch, for every fault combination.
        for links in (
            LinkSpec(delay=1),
            LinkSpec(delay=3, seed=2),
            LinkSpec(delay=1, loss=2, seed=3),
            LinkSpec(delay=2, dup=2, seed=4),
            LinkSpec(delay=2, loss=1, dup=1, seed=5),
        ):
            engine = build_engine(
                "unknown",
                _placement(n=9, k=3, seed=1),
                build_scheduler("chaos", seed=6),
                validate_enabledness=True,
                links=links,
            )
            engine.run()
            assert engine.quiescent

    def test_snapshot_encodes_fault_state(self):
        reliable = build_engine("unknown", _placement(seed=2), build_scheduler("sync"))
        faulty = build_engine(
            "unknown",
            _placement(seed=2),
            build_scheduler("sync"),
            links=LinkSpec(delay=2, seed=0),
        )
        assert reliable.snapshot().faults is None
        snap = faulty.snapshot()
        assert snap.faults is not None
        # The packed form grows a link-faults trailer (the draw
        # counters) so memoised faulty states can never collide with
        # reliable ones.
        ordinal, loss_used, dup_used = snap.faults[2:]
        trailer = b"F;I%d;I%d;I%d;" % (ordinal, loss_used, dup_used)
        assert snap.packed().endswith(trailer)
        assert reliable.snapshot().packed() != snap.packed()

    def test_run_experiment_with_delay_still_uniform(self):
        result = run_experiment(
            "unknown",
            _placement(seed=7),
            build_scheduler("random", seed=7),
            links=LinkSpec(delay=2, seed=7),
        )
        assert result.report is not None
        assert result.report.ok, result.report.describe()


# ---------------------------------------------------------------------------
# Coverage keys (fuzzer) see fault state
# ---------------------------------------------------------------------------


class TestCoverageKeys:
    def test_reliable_pattern_shape_unchanged(self):
        engine = build_engine("unknown", _placement(seed=1), build_scheduler("sync"))
        pattern = enabled_pattern(engine)
        assert len(pattern) == 2

    def test_faulty_pattern_gains_fault_dimensions(self):
        engine = build_engine(
            "unknown",
            _placement(seed=1),
            build_scheduler("sync"),
            links=LinkSpec(delay=2, seed=0),
        )
        patterns = {enabled_pattern(engine)}
        assert all(len(p) == 3 for p in patterns)
        engine.run_until(
            lambda e: any(b for b in e.ring.faults.buffers), max_rounds=200
        )
        statuses, _enabled, actors = enabled_pattern(engine)
        assert "B" in statuses
        assert actors >= 1


# ---------------------------------------------------------------------------
# Model checking under faults
# ---------------------------------------------------------------------------


class TestFaultyModelChecking:
    PLACEMENT_SEED = 0
    N, K = 5, 2

    def _placement(self):
        return random_placement(self.N, self.K, random.Random(self.PLACEMENT_SEED))

    def test_delay_strictly_enlarges_state_space(self):
        placement = self._placement()
        reliable = check_interleavings(
            "unknown", placement, por=False, stop_at_first=False
        )
        faulty = check_interleavings(
            "unknown",
            placement,
            por=False,
            stop_at_first=False,
            links=LinkSpec(delay=1, seed=0),
        )
        assert reliable.ok
        assert faulty.ok
        assert faulty.explored > reliable.explored

    def test_por_forced_off_under_faults(self):
        # The sleep-set reduction is unsound under faults (the shared
        # ordinal draw stream makes "independent" moves interfere), so
        # por=True must silently degrade to full expansion.
        placement = self._placement()
        links = LinkSpec(delay=1, seed=0)
        reduced = check_interleavings(
            "unknown", placement, por=True, stop_at_first=False, links=links
        )
        full = check_interleavings(
            "unknown", placement, por=False, stop_at_first=False, links=links
        )
        assert reduced.por_skipped == 0
        assert reduced.explored == full.explored
        assert sorted(reduced.terminal_keys) == sorted(full.terminal_keys)

    def test_frontier_verdict_is_jobs_invariant(self):
        placement = self._placement()
        links = LinkSpec(delay=1, seed=0)
        one = check_frontier(
            "unknown", placement, jobs=1, stop_at_first=False, links=links
        )
        two = check_frontier(
            "unknown", placement, jobs=2, stop_at_first=False, links=links
        )
        assert one.verdict == two.verdict == "ok"
        assert one.explored == two.explored
        assert one.terminals == two.terminals

    def test_frontier_agrees_with_dfs(self):
        placement = self._placement()
        links = LinkSpec(delay=1, seed=0)
        serial = check_interleavings(
            "unknown", placement, por=False, stop_at_first=False, links=links
        )
        frontier = check_frontier(
            "unknown", placement, jobs=1, stop_at_first=False, links=links
        )
        assert serial.verdict == frontier.verdict
        assert serial.explored == frontier.explored


# ---------------------------------------------------------------------------
# Satellite: the fault-free identity gate
# ---------------------------------------------------------------------------


class TestFaultFreeIdentityGate:
    """``LinkSpec(0,0,0)`` and no spec must be the SAME experiment.

    Byte-identical activation logs, metrics, packed final states and
    run rows across every algorithm x every scheduler family — the gate
    that lets the links field ride along without ever perturbing the
    reliable ladder or invalidating archived hashes.
    """

    @pytest.mark.parametrize("algorithm", algorithm_names())
    @pytest.mark.parametrize("scheduler", scheduler_names())
    def test_engine_identity(self, algorithm, scheduler):
        placement = _placement(n=8, k=2, seed=4)
        runs = []
        for links in (None, LinkSpec(0, 0, 0)):
            engine = build_engine(
                algorithm,
                placement,
                build_scheduler(scheduler, seed=13),
                links=links,
            )
            engine.run()
            runs.append(
                (
                    engine.activation_log,
                    engine.metrics,
                    engine.snapshot().packed(),
                    engine.snapshot().canonical_key(),
                )
            )
        assert runs[0] == runs[1]

    def test_run_rows_and_hashes_identical(self):
        bare = _spec(algorithm="known_k_full", scheduler="random")
        inactive = _spec(
            algorithm="known_k_full", scheduler="random", links=LinkSpec()
        )
        assert bare.content_hash() == inactive.content_hash()
        assert run_experiment(bare).row() == run_experiment(inactive).row()

    def test_store_digests_identical(self, tmp_path):
        spec_pairs = [
            (_spec(algorithm="known_n_full"), _spec(algorithm="known_n_full", links=LinkSpec())),
            (_spec(algorithm="unknown", scheduler="burst"),
             _spec(algorithm="unknown", scheduler="burst", links=LinkSpec(seed=2))),
        ]
        digests = []
        for column in (0, 1):
            store = RunStore(tmp_path / f"store{column}")
            for pair in spec_pairs:
                cached_run(pair[column], store)
            digests.append(store.digest())
            store.close()
        assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# CLI threading
# ---------------------------------------------------------------------------


class TestCli:
    def test_run_accepts_links(self, capsys):
        from repro.cli import main

        code = main(
            ["run", "--algorithm", "unknown", "--n", "8", "--k", "2",
             "--links", "delay=2,seed=7"]
        )
        assert code == 0
        assert "True" in capsys.readouterr().out

    def test_bad_links_is_a_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--n", "8", "--k", "2", "--links", "seed=3"])
        assert excinfo.value.code == 2
        assert "links" in capsys.readouterr().err

    def test_spec_embeds_links(self, capsys):
        from repro.cli import main

        code = main(
            ["spec", "--algorithm", "unknown", "--n", "8", "--k", "2",
             "--links", "delay=1,loss=1"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["links"] == {"delay": 1, "loss": 1, "dup": 0, "seed": 0}
        # The spec round-trips through from_dict to the same experiment.
        assert ExperimentSpec.from_dict(payload).links == LinkSpec(delay=1, loss=1)

    def test_mc_links_header_and_verdict(self, capsys):
        from repro.cli import main

        code = main(
            ["mc", "--algorithm", "unknown", "--n", "5", "--k", "2",
             "--links", "delay=1", "--keep-going"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "under link faults" in out

    def test_query_compact(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        assert main(
            ["run", "--algorithm", "known_k_full", "--n", "12", "--k", "2",
             "--store", store_dir]
        ) == 0
        capsys.readouterr()
        assert main(["query", "--store", store_dir, "--compact"]) == 0
        out = capsys.readouterr().out
        assert "reclaimed" in out
        assert "unchanged" in out
        # The compacted store still answers queries.
        assert main(["query", "--store", store_dir, "--failed"]) == 0
