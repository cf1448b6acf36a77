"""Engine single-step driving and copy-on-branch forking."""

from __future__ import annotations

import importlib
import pickle
import pkgutil

import pytest

from repro.baselines.rendezvous import RendezvousAgent
from repro.errors import SimulationError
from repro.experiments.runner import build_engine
from repro.mc import check_frontier
from repro.mc.selftest import wake_race_agents
from repro.registry import algorithm_names, build_scheduler
from repro.ring.placement import Placement
from repro.sim.agent import Agent
from repro.sim.engine import Engine


def test_step_requires_enabled_agent():
    engine = build_engine("known_k_full", Placement(6, homes=(0, 3)))
    enabled = engine.enabled_agents()
    with pytest.raises(SimulationError):
        engine.step(99)  # unknown agent
    engine.step(enabled[0])
    assert engine.steps == 1


def test_step_sequence_matches_scheduler_run():
    placement = Placement(ring_size=8, homes=(0, 3, 5))
    driven = build_engine("known_k_full", placement)
    reference = build_engine("known_k_full", placement)
    # Driving lowest-id-first by hand equals a recorded scheduler run.
    while not driven.quiescent:
        driven.step(driven.enabled_agents()[0])
    reference.run()
    assert driven.final_positions() == reference.final_positions()


@pytest.mark.parametrize("algorithm", algorithm_names())
def test_fork_is_independent_and_equivalent(algorithm):
    placement = Placement(ring_size=8, homes=(0, 3, 5))
    engine = build_engine(algorithm, placement)
    for _ in range(7):
        engine.step(engine.enabled_agents()[0])
    fork = engine.fork()
    assert fork.snapshot() == engine.snapshot()
    assert fork.steps == engine.steps
    assert fork.activation_log == engine.activation_log

    # Divergence: stepping the fork leaves the original untouched.
    before = engine.snapshot()
    fork.step(fork.enabled_agents()[-1])
    assert engine.snapshot() == before
    assert fork.steps == engine.steps + 1

    # Both run to quiescence along the same rule -> same final state.
    while not engine.quiescent:
        engine.step(engine.enabled_agents()[0])
    while not fork.quiescent:
        fork.step(fork.enabled_agents()[0])
    assert sorted(engine.final_positions().values()) == sorted(
        fork.final_positions().values()
    )


def test_fork_of_fork():
    engine = build_engine("unknown", Placement(6, homes=(0, 2)))
    for _ in range(5):
        engine.step(engine.enabled_agents()[0])
    grandchild = engine.fork().fork()
    assert grandchild.snapshot() == engine.snapshot()
    grandchild.step(grandchild.enabled_agents()[0])
    assert grandchild.steps == engine.steps + 1


def test_fork_preserves_halted_and_suspended_flags():
    engine = build_engine("unknown", Placement(5, homes=(0, 2)))
    engine.run()  # relaxed algorithm quiesces all-suspended
    fork = engine.fork()
    for agent_id in engine.agent_ids:
        assert fork.agent(agent_id).suspended == engine.agent(agent_id).suspended
        assert fork.agent(agent_id).halted == engine.agent(agent_id).halted
    assert fork.quiescent


def test_fork_carries_activation_log_for_replay():
    from repro.sim.scheduler import ReplayScheduler

    placement = Placement(ring_size=6, homes=(0, 3))
    engine = build_engine("known_k_full", placement)
    for _ in range(9):
        engine.step(engine.enabled_agents()[-1])
    fork = engine.fork()
    # The fork's log replays on a fresh engine to the identical state.
    replay = build_engine(
        "known_k_full", placement, scheduler=ReplayScheduler(fork.activation_log)
    )
    replay.run_rounds(len(fork.activation_log))
    assert replay.snapshot() == fork.snapshot()


def _walk_to_quiescence(engine):
    while not engine.quiescent:
        engine.step(engine.enabled_agents()[-1])


_PLACEMENT = Placement(ring_size=7, homes=(0, 2, 3))
_FACTORIES = {
    "rendezvous": lambda: [RendezvousAgent(3) for _ in range(3)],
    "wake_race": lambda: wake_race_agents(3),
}


@pytest.mark.parametrize("name", algorithm_names() + sorted(_FACTORIES))
def test_fork_at_every_depth_leaves_original_untouched(name):
    # A clone that shared the original's D list (or any other field)
    # would change the original's key when run to the end.
    if name in _FACTORIES:
        engine = Engine(_PLACEMENT, _FACTORIES[name](), collect_metrics=False)
    else:
        engine = build_engine(name, _PLACEMENT, collect_metrics=False)
    depth = 0
    while not engine.quiescent:
        key = engine.snapshot().canonical_key()
        clone = engine.fork()
        assert clone.snapshot().canonical_key() == key
        _walk_to_quiescence(clone)
        assert engine.snapshot().canonical_key() == key, (name, depth)
        engine.step(engine.enabled_agents()[0])
        depth += 1
    assert depth > 10


@pytest.mark.parametrize("algorithm", algorithm_names(include_selftest=True))
def test_engine_pickles_mid_run(algorithm):
    # Plain fields all the way down: a pickled engine resumes exactly.
    engine = build_engine(
        algorithm, Placement(10, homes=(0, 3, 7)), build_scheduler("random", seed=3)
    )
    engine.run_rounds(20)
    clone = pickle.loads(pickle.dumps(engine))
    assert clone.snapshot().canonical_key() == engine.snapshot().canonical_key()
    engine.run()
    clone.run()
    assert clone.activation_log == engine.activation_log
    assert clone.final_positions() == engine.final_positions()


@pytest.mark.parametrize("spilled", [False, True], ids=["in-memory", "spilled"])
def test_search_runs_each_agent_step_exactly_once(monkeypatch, tmp_path, spilled):
    # Forks copy fields and frontier items carry live engines, so the
    # checker never replays a view or a schedule: every Agent.start/act
    # call is one engine step, and every engine step one transition.
    calls = []
    steps = []
    for owner, name, log in (
        (Agent, "start", calls), (Agent, "act", calls), (Engine, "step", steps),
    ):
        original = getattr(owner, name)

        def counted(self, *args, _original=original, _log=log):
            _log.append(None)
            return _original(self, *args)

        monkeypatch.setattr(owner, name, counted)
    store = str(tmp_path) if spilled else None
    result = check_frontier("unknown", Placement(6, homes=(0, 2)), store_root=store)
    assert result.ok and result.transitions > 100
    assert len(calls) == len(steps) == result.transitions


def _src_agent_classes():
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    pending = list(Agent.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro."):
            yield cls


def test_no_src_agent_overrides_the_lifecycle():
    # perfbench wraps only vars(Agent)["act"]; fork must stay a field copy.
    classes = list(_src_agent_classes())
    assert len(classes) >= 6
    for cls in classes:
        overridden = {"act", "start", "fork"} & set(vars(cls))
        assert not overridden, (cls.__name__, overridden)
        assert list(cls.SCALARS) == sorted(cls.SCALARS), cls.__name__
        assert list(cls.SEQUENCES) == sorted(cls.SEQUENCES), cls.__name__
