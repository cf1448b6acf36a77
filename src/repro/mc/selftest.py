"""A deliberately broken agent that only fails under rare schedules.

A model checker that has never found a bug proves nothing about itself.
:class:`WakeRaceAgent` is the Algorithms 2+3 (logspace) agent with one
scheduling race injected into the follower's walk toward the base node:
when the walk crosses a token node where some agent is staying, the
buggy follower concludes "an agent already deployed here" and halts on
the spot.

The only agent that can legitimately be staying at such a node is
another follower that has been *woken* by the leader's notice but not
yet *scheduled* to depart — a pure activation-order race.  Under the
synchronous round-robin every woken follower departs on the very next
round, one full round before any trailing follower can reach its home,
so the defect never fires; the repo's sampled adversaries (random
seeds, burst, chaos, laggard) also miss it on suitable placements.
Only schedules that starve a woken follower just long enough for the
trailing follower to walk past expose the bug — e.g. on the ring
``n=8, homes=(0, 1, 3)``, where every sampled scheduler deploys
uniformly and only exhaustive exploration finds the violating
interleaving.

That is exactly the class of defect one sampled schedule per
configuration can never rule out and the exhaustive checker finds by
construction — the self-test in ``tests/test_model_checker.py``
asserts the sampled schedulers pass, that the checker produces a
counterexample schedule, and that replaying the schedule reproduces
the same violation deterministically.
"""

from __future__ import annotations

from typing import List

from repro.core.known_k_logspace import KnownKLogSpaceAgent
from repro.registry import get_algorithm, register_algorithm
from repro.sim.actions import Action, NodeView

__all__ = ["WakeRaceAgent", "wake_race_agents"]


@register_algorithm(
    "wake_race",
    build=lambda cls, k, n: cls(k),
    halts=True,
    knowledge="k",
    bounds=get_algorithm("known_k_logspace").bounds,
    table1_row="selftest (broken Algorithms 2+3)",
    description=(
        "model-checker self-test: Algorithms 2+3 with an injected "
        "follower wake-race bug"
    ),
    selftest=True,
)
class WakeRaceAgent(KnownKLogSpaceAgent):
    """Algorithms 2+3 with a schedule-dependent follower bug injected."""

    def _to_base(self, view: NodeView) -> Action:
        # BUG: "a token node with a staying agent must already be
        # deployed" — but a staying agent here can only be a woken
        # follower the scheduler has not yet let depart.  Fires only
        # when the activation order starves that follower long enough
        # for this one to catch up.
        if view.tokens > 0 and view.agents_present > 0:
            if self.tokens_seen + 1 < self.t_base:
                self.tokens_seen += 1
                return Action.halt_here()
        return super()._to_base(view)


def wake_race_agents(agent_count: int) -> List[WakeRaceAgent]:
    """Factory for :func:`repro.mc.checker.check_interleavings`."""
    return [WakeRaceAgent(agent_count) for _ in range(agent_count)]
