"""Algorithm 1: knowledge of k, O(k log n) memory (paper Section 3.1).

Each agent:

1. **Selection phase** — releases its token at its home node, travels
   once around the ring (detecting the circuit by counting ``k`` token
   nodes) and records the full distance sequence
   ``D = (d_0, ..., d_{k-1})``, learning ``n = sum(D)`` on the way.
2. **Deployment phase** — computes ``rank``, the smallest ``x`` with
   ``shift(D, x)`` lexicographically minimal; its *base node* is the
   home of its ``rank``-th forward agent.  It walks
   ``disBase = d_0 + ... + d_{rank-1}`` hops to the base node and then
   ``offset(rank)`` further hops to its own target node, where it halts.

With a periodic token layout, several nodes tie as base nodes; the
``rank`` then indexes within one period and the §3.1.1 offset pattern
(``b`` = symmetry degree base nodes) places ``k/b`` agents per base
segment, handling ``n != ck`` exactly.

Complexities (Theorem 3): O(k log n) agent memory (the stored D
dominates), O(n) ideal time, O(kn) total moves.
"""

from __future__ import annotations

from repro.analysis.sequences import minimal_period, rotation_rank
from repro.core.targets import target_offset
from repro.errors import ConfigurationError
from repro.registry import Bounds, register_algorithm
from repro.sim.actions import Action, NodeView
from repro.sim.agent import Agent

__all__ = ["KnownKFullAgent"]


class FullDeployment(Agent):
    """Algorithm 1's deployment phase, shared with the footnote-2 variant.

    Subclasses run the selection circuit, fill ``D``, ``k`` and ``n``,
    and call :meth:`_deploy` in the atomic action that completes it.
    """

    def _deploy(self) -> Action:
        # Base nodes are the homes whose rotation of D is minimal; their
        # count b equals the symmetry degree of D, and rank < k/b.
        self.rank = rotation_rank(self.D)
        base_count = self.k // minimal_period(self.D)
        self.dis_base = sum(self.D[: self.rank])
        self.remaining = self.dis_base + target_offset(
            self.rank, self.n, self.k, base_count
        )
        self.stage = "deploy"
        return self._walk()

    def _walk(self) -> Action:
        if self.remaining > 0:
            self.remaining -= 1
            return Action.move_forward()
        return Action.halt_here()


@register_algorithm(
    "known_k_full",
    build=lambda cls, k, n: cls(k),
    halts=True,
    knowledge="k",
    bounds=Bounds(
        memory="O(k log n)",
        time="O(n)",
        max_moves=lambda n, k: 3 * k * n,
        max_ideal_time=lambda n, k: 3 * n + 5,
    ),
    table1_row="Algorithm 1",
    description="Algorithm 1: knowledge of k, O(k log n) memory, O(n) time",
)
class KnownKFullAgent(FullDeployment):
    """The Algorithm 1 agent.  ``agent_count`` is the known ``k``."""

    SCALARS = ("dis", "dis_base", "j", "k", "n", "rank", "remaining")
    SEQUENCES = ("D",)

    def __init__(self, agent_count: int) -> None:
        super().__init__()
        if agent_count < 1:
            raise ConfigurationError(f"k must be >= 1, got {agent_count}")
        self.k = agent_count
        # Paper-level state (audited by memory_bits):
        self.D = None  # distance sequence, grows to length k
        self.j = None  # token nodes observed so far
        self.dis = None  # distance since the previous token node
        self.n = None  # ring size, learned at the end of the circuit
        self.rank = None  # base-node rank (Algorithm 1, line 14)
        self.dis_base = None  # hops from home to base node
        self.remaining = None  # hops left to the target node

    def transition(self, view: NodeView) -> Action:
        stage = self.stage
        if stage == "circuit":  # selection phase (Algorithm 1, lines 1-10)
            self.dis += 1
            if view.tokens > 0:
                self.D.append(self.dis)
                self.dis = 0
                self.j += 1
                if self.j == self.k:  # back at the home node: circuit complete
                    self.n = sum(self.D)
                    return self._deploy()  # Algorithm 1, lines 12-18
            return Action.move_forward()
        if stage == "deploy":
            return self._walk()
        if stage == "start":
            # Release the token and start the circuit.  The initial-buffer
            # rule guarantees we act at our home before anyone visits it.
            self.j = 0
            self.dis = 0
            self.D = []
            self.stage = "circuit"
            return Action.move_forward(release_token=True)
