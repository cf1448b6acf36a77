"""Algorithm 1 variant: knowledge of n instead of k (paper footnote 2).

Section 3 assumes knowledge of k "or n, since k and n can be easily
obtained if one of them is given": an agent that knows ``n`` detects
the completion of its selection circuit by counting ``n`` moves and
learns ``k`` by counting the tokens it saw.  Everything after the
circuit (base-node selection by minimal rotation, §3.1.1 target
arithmetic) is identical to :class:`repro.core.known_k_full.KnownKFullAgent`.

Complexities match Result 1: O(k log n) memory, O(n) time, O(kn) moves.
"""

from __future__ import annotations

from repro.core.known_k_full import FullDeployment
from repro.errors import ConfigurationError
from repro.registry import Bounds, register_algorithm
from repro.sim.actions import Action, NodeView

__all__ = ["KnownNFullAgent"]


@register_algorithm(
    "known_n_full",
    build=lambda cls, k, n: cls(n),
    halts=True,
    knowledge="n",
    bounds=Bounds(
        memory="O(k log n)",
        time="O(n)",
        max_moves=lambda n, k: 3 * k * n,
        max_ideal_time=lambda n, k: 3 * n + 5,
    ),
    table1_row="Algorithm 1 (footnote 2)",
    description="Algorithm 1 variant (footnote 2): knowledge of n instead of k",
)
class KnownNFullAgent(FullDeployment):
    """The footnote-2 agent: ``ring_size`` is the known ``n``."""

    SCALARS = ("dis", "dis_base", "k", "moved", "n", "rank", "remaining")
    SEQUENCES = ("D",)

    def __init__(self, ring_size: int) -> None:
        super().__init__()
        if ring_size < 1:
            raise ConfigurationError(f"n must be >= 1, got {ring_size}")
        self.n = ring_size
        self.k = None  # learned during the circuit (token count)
        self.D = None
        self.moved = None  # moves made during the circuit
        self.dis = None
        self.rank = None
        self.dis_base = None
        self.remaining = None

    def transition(self, view: NodeView) -> Action:
        stage = self.stage
        if stage == "circuit":  # selection phase: one circuit of n moves
            self.moved += 1
            self.dis += 1
            if view.tokens > 0:
                self.D.append(self.dis)
                self.dis = 0
            if self.moved == self.n:  # back at the home node
                self.k = len(self.D)
                return self._deploy()  # identical to Algorithm 1
            return Action.move_forward()
        if stage == "deploy":
            return self._walk()
        if stage == "start":
            self.moved = 0
            self.dis = 0
            self.D = []
            self.stage = "circuit"
            return Action.move_forward(release_token=True)
