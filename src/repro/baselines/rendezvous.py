"""Token-based rendezvous baseline (the paper's motivating contrast, E18).

The introduction contrasts uniform deployment (attaining symmetry,
solvable from *every* initial configuration) with rendezvous (breaking
symmetry, unsolvable from symmetric configurations).  This baseline
makes the contrast executable:

* each agent releases its token, travels one circuit (knowledge of k)
  and records the distance sequence ``D``;
* if ``D`` is aperiodic, the home of the agent with the minimal
  rotation is a unique global meeting point: everybody walks there —
  rendezvous succeeds;
* if ``D`` is periodic (symmetry degree ``l >= 2``), the minimal
  rotation is attained by ``l`` distinct homes; no deterministic
  anonymous algorithm can pick one (Section 1.3 and [16]), so the agent
  *detects* the symmetry and halts at home, reporting failure.

Tests pair this with the uniform-deployment algorithms on the same
periodic placements: deployment succeeds exactly where rendezvous
provably cannot.
"""

from __future__ import annotations

from repro.analysis.sequences import minimal_period, rotation_rank
from repro.errors import ConfigurationError
from repro.sim.actions import Action, NodeView
from repro.sim.agent import Agent

__all__ = ["RendezvousAgent"]


class RendezvousAgent(Agent):
    """Deterministic rendezvous-or-detect agent with knowledge of k."""

    SCALARS = ("dis", "gathered", "j", "k", "remaining", "symmetric")
    SEQUENCES = ("D",)

    def __init__(self, agent_count: int) -> None:
        super().__init__()
        if agent_count < 1:
            raise ConfigurationError(f"k must be >= 1, got {agent_count}")
        self.k = agent_count
        self.D = None
        self.j = None
        self.dis = None
        self.gathered = None  # True: reached the unique meeting point
        self.symmetric = None  # True: detected an unbreakable symmetry
        self.remaining = None

    def transition(self, view: NodeView) -> Action:
        stage = self.stage
        if stage == "circuit":
            self.dis += 1
            if view.tokens > 0:
                self.D.append(self.dis)
                self.dis = 0
                self.j += 1
                if self.j == self.k:
                    return self._meet_or_detect()
            return Action.move_forward()
        if stage == "walk":
            return self._walk()
        if stage == "start":
            self.j = 0
            self.dis = 0
            self.D = []
            self.stage = "circuit"
            return Action.move_forward(release_token=True)

    def _meet_or_detect(self) -> Action:
        if minimal_period(self.D) < self.k:
            # Symmetric configuration: rendezvous is unsolvable; detect
            # and stop at home (the honest behaviour of a deterministic
            # algorithm that must not run forever).
            self.symmetric = True
            self.gathered = False
            return Action.halt_here()
        self.symmetric = False
        self.remaining = sum(self.D[: rotation_rank(self.D)])
        self.stage = "walk"
        return self._walk()

    def _walk(self) -> Action:
        if self.remaining > 0:
            self.remaining -= 1
            return Action.move_forward()
        self.gathered = True
        return Action.halt_here()
