"""Hypothesis stateful test: arbitrary single-step engine driving.

A :class:`RuleBasedStateMachine` drives one engine one *arbitrary*
enabled-agent step at a time — hypothesis owns the schedule, and
shrinking turns any failure into a minimal activation sequence.  After
every step the machine re-checks the engine invariants:

* the incremental enabled set equals the O(k) recompute oracle,
* the configuration conserves agents (each in exactly one place) and
  message accounting (``audit_configuration``),
* token counters never decrease and halted agents are never enabled,
* at quiescence, settled positions are distinct and the terminal
  states match the algorithm's contract (halted vs suspended).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.analysis.verification import audit_configuration, verify_uniform_deployment
from repro.experiments.runner import build_engine
from repro.registry import algorithm_names, get_algorithm
from repro.ring.placement import Placement


class EngineStateMachine(RuleBasedStateMachine):
    """Drive one engine step by step under an arbitrary schedule."""

    @initialize(
        algorithm=st.sampled_from(algorithm_names()),
        ring_size=st.integers(min_value=4, max_value=9),
        data=st.data(),
    )
    def build(self, algorithm, ring_size, data):
        agent_count = data.draw(
            st.integers(min_value=1, max_value=min(4, ring_size)), label="k"
        )
        homes = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=ring_size - 1),
                min_size=agent_count,
                max_size=agent_count,
                unique=True,
            ),
            label="homes",
        )
        self.algorithm = algorithm
        self.engine = build_engine(
            algorithm, Placement(ring_size=ring_size, homes=tuple(homes))
        )
        self.last_tokens = tuple(self.engine.ring.tokens)

    @precondition(lambda self: not self.engine.quiescent)
    @rule(pick=st.integers(min_value=0))
    def step_one_enabled_agent(self, pick):
        enabled = self.engine.enabled_agents()
        self.engine.step(enabled[pick % len(enabled)])

    @precondition(lambda self: self.engine.quiescent)
    @rule()
    def quiescence_is_stable(self):
        # A quiescent engine stays quiescent: no agent re-enables itself.
        steps = self.engine.steps
        assert self.engine.enabled_agents() == []
        assert self.engine.run_rounds(1).total_moves >= 0
        assert self.engine.steps == steps

    @invariant()
    def incremental_enabled_set_matches_oracle(self):
        self.engine.check_enabledness_invariant()

    @invariant()
    def configuration_is_structurally_sound(self):
        failures = audit_configuration(self.engine.snapshot())
        assert not failures, failures

    @invariant()
    def tokens_never_decrease(self):
        tokens = tuple(self.engine.ring.tokens)
        assert all(
            now >= was for was, now in zip(self.last_tokens, tokens)
        ), f"tokens decreased: {self.last_tokens} -> {tokens}"
        self.last_tokens = tokens

    @invariant()
    def halted_agents_are_never_enabled(self):
        enabled = set(self.engine.enabled_agents())
        for agent_id in self.engine.agent_ids:
            if self.engine.agent(agent_id).halted:
                assert agent_id not in enabled

    @invariant()
    def settled_positions_distinct_at_quiescence(self):
        if not self.engine.quiescent:
            return
        positions = list(self.engine.final_positions().values())
        assert len(set(positions)) == len(positions)
        halts = get_algorithm(self.algorithm).halts
        report = verify_uniform_deployment(
            self.engine, require_halted=halts, require_suspended=not halts
        )
        assert report.ok, report.describe()


EngineStateMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=60, deadline=None
)
TestEngineStateMachine = EngineStateMachine.TestCase
