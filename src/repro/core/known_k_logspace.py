"""Algorithms 2+3: knowledge of k, O(log n) memory (paper Section 3.2).

**Selection phase (Algorithm 2).**  All agents start *active*.  The
phase proceeds in at most ``ceil(log k)`` sub-phases.  In a sub-phase
every active agent travels once around the ring (detecting the circuit
by counting ``k`` token nodes) and measures, for every active agent in
order, the ID ``(d, fNum)``: the distance to the next active node and
the number of follower nodes in between.  Active nodes are recognised
as "token but no staying agent" — sound under asynchrony because the
FIFO links prevent overtaking, so a home node is empty exactly while
its (active) owner is traversing.  At the end of the circuit:

* all IDs identical            -> become a **leader** (home = base node),
* own ID not minimal, or equal
  to the successor's ID        -> become a **follower** (stay home),
* otherwise                    -> stay active, run the next sub-phase.

The surviving actives at least halve each sub-phase, and the base nodes
(homes of leaders) satisfy the base-node conditions: equal spacing and
equal token counts per segment.

**Deployment phase (Algorithm 3).**  Each leader walks its segment,
handing every waiting follower a :class:`LeaderNotice` with ``tBase``
(tokens to observe to reach the nearest base) and halts on the next
base node.  A woken follower walks to that base, then hops from target
to target (the §3.1.1 offset pattern; the leader's ``f_num`` yields the
base count ``b = k/(f_num+1)``) and halts at the first vacant one —
atomicity makes vacancy checks race-free.

Complexities (Theorem 4): O(log n) memory, O(n log k) time, O(kn) moves.
"""

from __future__ import annotations

import math

from repro.core.messages import LeaderNotice
from repro.core.targets import hop_to_next_target
from repro.errors import ConfigurationError
from repro.registry import Bounds, register_algorithm
from repro.sim.actions import Action, NodeView
from repro.sim.agent import Agent

__all__ = ["KnownKLogSpaceAgent"]


@register_algorithm(
    "known_k_logspace",
    build=lambda cls, k, n: cls(k),
    halts=True,
    knowledge="k",
    bounds=Bounds(
        memory="O(log n)",
        time="O(n log k)",
        max_moves=lambda n, k: 4 * k * n,
        max_ideal_time=lambda n, k: (math.ceil(math.log2(k)) + 3) * n + 10,
    ),
    table1_row="Algorithms 2+3",
    description="Algorithms 2+3: knowledge of k, O(log n) memory, O(n log k) time",
)
class KnownKLogSpaceAgent(Agent):
    """The Algorithms 2+3 agent.  ``agent_count`` is the known ``k``."""

    SCALARS = (
        "b", "hops", "id_d", "id_f", "identical", "is_leader", "k", "min_id",
        "n", "next_d", "next_f", "phase", "seg_d", "seg_f", "seg_index", "t",
        "t_base", "target_index", "tokens_seen",
    )

    def __init__(self, agent_count: int) -> None:
        super().__init__()
        if agent_count < 1:
            raise ConfigurationError(f"k must be >= 1, got {agent_count}")
        self.k = agent_count
        # Selection-phase state (all O(log n)-bit scalars):
        self.phase = None  # sub-phase counter
        self.identical = None  # all observed IDs equal to own so far
        self.min_id = None  # own ID minimal among observed so far
        self.id_d = None  # own ID: distance to next active node
        self.id_f = None  # own ID: follower nodes in between
        self.next_d = None  # successor's ID (Algorithm 2, line 7)
        self.next_f = None
        self.seg_d = None  # segment currently being measured
        self.seg_f = None
        self.seg_index = None  # 0 = own segment
        self.tokens_seen = None  # circuit detection: k tokens = home
        self.n = None  # ring size, accumulated in sub-phase 1
        self.is_leader = None
        # Deployment-phase state:
        self.t = None  # token nodes visited by a leader
        self.t_base = None  # follower: tokens to the nearest base
        self.b = None  # follower: number of base nodes
        self.target_index = None  # follower: index within base segment
        self.hops = None  # follower: hops left to the next target

    def transition(self, view: NodeView) -> Action:
        stage = self.stage
        if stage == "subphase":  # Algorithm 2, lines 4-18: one sub-phase
            self.phase += 1
            self.identical = True
            self.min_id = True
            self.seg_index = 0
            self.seg_d = 0
            self.seg_f = 0
            self.tokens_seen = 0
            self.stage = stage = "circuit"
        if stage == "circuit":  # one circuit of the ring
            self.seg_d += 1
            if self.phase == 1:
                self.n += 1  # learn n during the first circuit
            if view.tokens > 0:
                self.tokens_seen += 1
                at_home = self.tokens_seen == self.k
                if view.agents_present > 0 and not at_home:
                    self.seg_f += 1  # a follower staying at its home
                else:
                    self._close_segment(at_home)
                    if at_home:  # seg_index 1: met no other active node
                        return self._decide(sole_active=self.seg_index == 1)
            return Action.move_forward()
        if stage == "leader":
            return self._lead(view)
        if stage == "wait":
            return self._await_leader(view)
        if stage == "to_base":
            return self._to_base(view)
        if stage == "hop":
            return self._hop(view)
        if stage == "start":
            self.phase = 0
            self.n = 0
            # Release the token at home and depart.  Sub-phase boundaries
            # also depart within a single atomic action, so an active
            # agent's home is empty whenever another active agent passes
            # it (the classification invariant).
            self.stage = "subphase"
            return Action.move_forward(release_token=True)

    # ------------------------------------------------------------------
    # Selection helpers
    # ------------------------------------------------------------------

    def _close_segment(self, at_home: bool) -> None:
        """Finish measuring one active-to-active segment (an ID)."""
        if self.seg_index == 0:
            self.id_d, self.id_f = self.seg_d, self.seg_f
        else:
            if self.seg_index == 1:
                self.next_d, self.next_f = self.seg_d, self.seg_f
            observed = (self.seg_d, self.seg_f)
            own = (self.id_d, self.id_f)
            if observed != own:
                self.identical = False
            if own > observed:
                self.min_id = False
        self.seg_index += 1
        self.seg_d = 0
        self.seg_f = 0

    def _decide(self, sole_active: bool) -> Action:
        """The decision at home, inside the arrival's atomic action."""
        if sole_active or self.identical:
            self.is_leader = True
            self.t = 0  # below id_f + 1: a leader always leaves home
            self.stage = "leader"
            return Action.move_forward()
        own = (self.id_d, self.id_f)
        if not self.min_id or own == (self.next_d, self.next_f):
            self.is_leader = False
            self.stage = "wait"  # suspended, message-wakeable, at home
            return Action.suspend_here()
        # Stay active: depart for the next sub-phase immediately (same
        # atomic action as the home arrival).
        self.stage = "subphase"
        return Action.move_forward()

    # ------------------------------------------------------------------
    # Deployment: leader (Algorithm 3, lines 2-12)
    # ------------------------------------------------------------------

    def _lead(self, view: NodeView) -> Action:
        pending = None
        if view.tokens > 0:
            self.t += 1
            if self.t <= self.id_f:
                # A follower home: notify in the same atomic action as
                # the departure (broadcast happens before moving).
                pending = LeaderNotice(
                    t_base=self.id_f - (self.t - 1), f_num=self.id_f
                )
        if self.t == self.id_f + 1:
            # Arrived at the next base node: this is the target.
            return Action.halt_here()
        return Action.move_forward(broadcast=pending)

    # ------------------------------------------------------------------
    # Deployment: follower (Algorithm 3, lines 15-21)
    # ------------------------------------------------------------------

    def _await_leader(self, view: NodeView) -> Action:
        for message in view.messages:
            if isinstance(message, LeaderNotice):
                self.t_base = message.t_base
                self.b = self.k // (message.f_num + 1)
                self.tokens_seen = 0
                self.stage = "to_base"
                return self._toward_base(view)
        return Action.suspend_here()

    def _to_base(self, view: NodeView) -> Action:
        """One step of the walk to the nearest base: observe ``t_base`` tokens."""
        if view.tokens > 0:
            self.tokens_seen += 1
        return self._toward_base(view)

    def _toward_base(self, view: NodeView) -> Action:
        if self.tokens_seen < self.t_base:
            return Action.move_forward()
        # Hop from target to target until a vacant one is found.  The
        # arrival, the vacancy check and the halt (or the departure)
        # form one atomic action, so two followers can never tie.
        self.target_index = 0
        return self._next_target(view)

    def _next_target(self, view: NodeView) -> Action:
        self.hops, self.target_index = hop_to_next_target(
            self.target_index, self.n, self.k, self.b
        )
        self.stage = "hop"
        return self._hop(view)

    def _hop(self, view: NodeView) -> Action:
        if self.hops > 0:
            self.hops -= 1
            return Action.move_forward()
        if view.agents_present == 0:
            return Action.halt_here()
        return self._next_target(view)
