"""Algorithms 4-6: no knowledge of k or n, relaxed problem (paper §4.2).

With no knowledge, uniform deployment *with* termination detection is
impossible (Theorem 5), so agents solve the relaxed problem: they end in
*suspended* states (message-wakeable) rather than halt states.

**Estimating phase (Algorithm 4).**  Release the token at home, then
walk from token node to token node recording distances into ``D`` until
``D`` is exactly four repetitions of its first quarter.  Estimate
``k' = |D|/4``, ``n' = sum of one quarter``; ``nodes = 4 n'`` moves were
made.  At least one agent estimates the true ``n`` in an aperiodic ring
(Lemma 4); any wrong estimate satisfies ``n' <= n/2`` (Lemma 3).

**Patrolling phase (Algorithm 5).**  Walk until ``nodes = 12 n'``
(i.e. 8 n' further moves), sending ``(n', k', nodes, D)`` to every
agent found staying at a visited node — those are prematurely suspended
agents with smaller estimates.

**Deployment phase (Algorithm 6).**  Select the base node through the
minimal rotation of the estimated block (always aperiodic, so a single
base per estimated ring), walk ``disBase`` then ``offset(rank)`` hops,
and suspend.  A suspended agent that receives an estimate with
``n' <= n'_l / 2`` whose sequence contains its own — aligned at shift
``t`` where the sender's prefix sum matches the home-to-home distance
``nodes_l - nodes`` — adopts the larger estimate, tops its move count up
to ``12 n'_l``, and redeploys.

*Faithfulness note*: the paper states the alignment condition with
literal prefix sums of ``D_l``; since both move counters may exceed one
(estimated) circuit, we evaluate it on the periodic extension of the
sender's block, i.e. modulo ``n'_l`` — the geometric meaning of the
condition (see DESIGN.md §2.4).

Complexities (Theorem 6) on a ring with symmetry degree ``l``:
O((k/l) log(n/l)) memory, O(n/l) time, O(kn/l) total moves.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.analysis.sequences import (
    is_fourfold_repetition,
    prefix_alignment_shift,
    rotation_rank,
    shift,
)
from repro.core.messages import PatrolInfo
from repro.core.targets import target_offset
from repro.registry import Bounds, register_algorithm
from repro.sim.actions import Action, NodeView
from repro.sim.agent import Agent

__all__ = ["UnknownKAgent"]


@register_algorithm(
    "unknown",
    build=lambda cls, k, n: cls(),
    halts=False,
    knowledge="none",
    bounds=Bounds(
        memory="O((k/l) log(n/l))",
        time="O(n/l)",
        max_moves=lambda n, k: 14 * k * n,
        max_ideal_time=lambda n, k: 20 * n,
    ),
    table1_row="Algorithms 4-6",
    description="Algorithms 4-6: no knowledge, relaxed problem, adaptive in l",
)
class UnknownKAgent(Agent):
    """The Algorithms 4-6 agent: no knowledge of k or n."""

    SCALARS = ("dis", "dis_base", "k_est", "n_est", "nodes", "rank", "remaining")
    SEQUENCES = ("D",)

    def __init__(self) -> None:
        super().__init__()
        # Paper-level state (audited by memory_bits):
        self.D = None  # observed distance sequence (4-fold at rest)
        self.dis = None  # distance since the previous token node
        self.n_est = None  # n': estimated number of nodes
        self.k_est = None  # k': estimated number of agents
        self.nodes = None  # total moves made so far
        self.rank = None  # base-node rank within the estimated block
        self.dis_base = None  # hops from (virtual) home to the base node
        self.remaining = None  # hops left in the current walk

    def transition(self, view: NodeView) -> Action:
        stage = self.stage
        if stage == "estimate":  # estimating phase (Algorithm 4)
            self.dis += 1
            if view.tokens > 0:
                self.D.append(self.dis)
                self.dis = 0
                if len(self.D) % 4 == 0 and is_fourfold_repetition(self.D):
                    self.k_est = len(self.D) // 4
                    self.n_est = sum(self.D[: self.k_est])
                    self.nodes = 4 * self.n_est
                    self.stage = "patrol"
                    return self._patrol(None)
            return Action.move_forward()
        if stage == "patrol":  # patrolling phase (Algorithm 5)
            self.nodes += 1
            return self._patrol(
                self._patrol_info() if view.agents_present > 0 else None
            )
        if stage == "approach":
            self.remaining -= 1
            self.nodes += 1
            return self._approach(None)
        if stage == "catch_up":
            self.nodes += 1
            return self._catch_up()
        if stage == "suspended":
            adopted = self._best_trigger(view.messages)
            if adopted is None:
                return Action.suspend_here()
            self._adopt(*adopted)
            return self._catch_up()
        if stage == "start":
            self.D = []
            self.dis = 0
            self.stage = "estimate"
            return Action.move_forward(release_token=True)

    # ------------------------------------------------------------------
    # Phase transitions
    # ------------------------------------------------------------------

    def _patrol(self, pending: Optional[PatrolInfo]) -> Action:
        # A broadcast decided after arriving at a node is carried by the
        # action that leaves it — one atomic action: arrive, observe,
        # send, leave.
        if self.nodes < 12 * self.n_est:
            return Action.move_forward(broadcast=pending)
        return self._deploy(pending)

    def _deploy(self, pending: Optional[PatrolInfo]) -> Action:
        """Deployment phase (Algorithm 6), entered again after resumes."""
        block = self.D[: self.k_est]
        self.rank = rotation_rank(block)
        self.dis_base = sum(block[: self.rank])
        self.remaining = self.dis_base + target_offset(
            self.rank, self.n_est, self.k_est, base_count=1
        )
        return self._approach(pending)

    def _approach(self, pending: Optional[PatrolInfo]) -> Action:
        if self.remaining > 0:
            self.stage = "approach"
            return Action.move_forward(broadcast=pending)
        # Suspend at the (estimated) target node; flush any last patrol
        # message in the same atomic action.
        self.stage = "suspended"
        return Action.suspend_here(broadcast=pending)

    def _catch_up(self) -> Action:
        # Catch up to 12 n' total moves under the adopted estimate
        # (always a positive count: nodes <= 14 n_old <= 7 n_new).
        if self.nodes < 12 * self.n_est:
            self.stage = "catch_up"
            return Action.move_forward()
        return self._deploy(None)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _patrol_info(self) -> PatrolInfo:
        return PatrolInfo(
            n_estimate=self.n_est,
            k_estimate=self.k_est,
            nodes_moved=self.nodes,
            distances=tuple(self.D),
        )

    def _best_trigger(
        self, messages: Tuple[object, ...]
    ) -> Optional[Tuple[PatrolInfo, int]]:
        """Return the largest-estimate triggering message, if any.

        A message triggers a resume when the sender's estimate is at
        least twice ours and our whole observed sequence aligns inside
        the sender's periodic block at the shift implied by the move
        counters (Algorithm 6, line 14).
        """
        best: Optional[Tuple[PatrolInfo, int]] = None
        for message in messages:
            if not isinstance(message, PatrolInfo):
                continue
            if 2 * self.n_est > message.n_estimate:
                continue
            alignment = prefix_alignment_shift(
                self.D, message.block, message.nodes_moved - self.nodes
            )
            if alignment is None:
                continue
            if best is None or message.n_estimate > best[0].n_estimate:
                best = (message, alignment)
        return best

    def _adopt(self, info: PatrolInfo, alignment: int) -> None:
        """Adopt the sender's estimate, re-based to our own home node."""
        self.n_est = info.n_estimate
        self.k_est = info.k_estimate
        self.D = list(shift(info.block, alignment)) * 4
