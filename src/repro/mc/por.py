"""Partial-order reduction for the interleaving checker (sleep sets).

Why sleep sets and not ample/stubborn sets
------------------------------------------

The classic ample-set condition C1 ("no action outside the ample set
that is dependent on an ample action can execute before an ample
action") is global: it quantifies over whole future paths.  In this
model a distant agent can *travel* — each hop is independent of an
agent ``a`` picked as the ample singleton — until it reaches ``a``'s
node and broadcasts into ``a``'s inbox, changing what ``a``'s next
action does.  Every enabled agent can be reached that way, so a sound
ample set degenerates to full expansion and a locally-checked one is
unsound (it would prune interleavings that lead to *different* terminal
states, which the differential gate in ``tests/test_mc_por.py`` would
catch).

Sleep sets (Godefroid) sidestep the problem: they never prune *states*,
only redundant *transitions* into states whose exploration is already
covered through a commuting sibling.  Every reachable state is still
reached, so verdicts, terminal-state sets and counterexample
reachability are bit-identical to full expansion — exactly the
guarantee the checker advertises — while the executed-transition count
drops (roughly 2x on the k=3 grid cells; see ``benchmarks/bench_mc.py``).

Independence relation
---------------------

An enabled agent's atomic action is centred on its *action node* ``v``:
the node it is staying at, or the node its link queue feeds.  Its read
set is node-``v``-local (tokens, staying agents, its own inbox — agents
in transit are invisible), and its write set is node ``v`` (dequeue
from ``q_v``, settle, token release, broadcast into same-node inboxes,
suspension wake) plus at most a *tail enqueue* into the outgoing link
``q_{v+1}`` when it moves on.  Two enabled agents with *distinct*
action nodes therefore commute:

* their node read/write sets are disjoint — every enable, disable and
  wake effect is same-node;
* the only structure they can share is one link queue, and only as a
  tail enqueue (actor at ``v``) against a head dequeue (actor at
  ``v+1``) — those commute, and the dequeuer cannot observe the agent
  enqueued behind it (two *tail* writers into the same queue always
  share an action node, so they are declared dependent);
* neither can disable the other, and forward enabledness is stable: a
  distant action never empties an inbox, removes a queue head, or
  suspends an agent elsewhere.

``conflict`` therefore declares dependence exactly when the action
nodes coincide — same home node, or a shared queue head.  The
differential gate in ``tests/test_mc_por.py`` re-derives this
empirically: on the full verification grid the reduced search reaches
bit-identical state and terminal sets.

Sleep sets are stored per visited state in *canonical slot* coordinates
(:meth:`repro.ring.configuration.Configuration.packed_layout`) so they
survive the agent-relabelling quotient of the memo table; a revisit
whose inherited sleep set is not a superset of the stored one re-expands
exactly the difference (the standard sleep-set revisit rule, :func:`revisit`,
which both drivers call — stored sets shrink monotonically, so the
search terminates).

Link faults: the new action class, and why the reduction stands down
--------------------------------------------------------------------

An active :class:`~repro.ring.faults.LinkSpec` adds *link actor*
actions (pseudo-id ``-(v + 1)`` for the link into node ``v``): popping
a phantom from ``q_v``'s head or ticking the link's delay buffer
(delivering its head into ``q_v``'s tail when the countdown ends).  A
link action's footprint is exactly ``{q_v, buffer_v}`` — it draws
nothing, reads no node state and touches no inbox — so it commutes
with every action whose node is neither ``v`` (head of ``q_v``) nor
``v - 1`` (a forward move from ``v - 1`` feeds ``q_v``/``buffer_v``),
and two link actors of distinct links always commute.

Agent actions, however, stop commuting with *each other*: every
forward move consumes one ordinal from the shared deterministic draw
stream (:func:`repro.ring.faults.fault_fraction` is keyed on the
label-invariant global move count), so reordering two moves reassigns
their fault draws and can reach genuinely different states.  Whether
an enabled agent will move is unknowable before running its protocol
step, so *every* pair of agent actions is potentially dependent
through the draw counter.  A sound sleep set under faults is therefore
empty — the checker runs faulty instances with the reduction disabled
(full expansion; verdicts unaffected, only the transition count grows)
and link actors never enter a sleep set.  Recovering reduction under
faults would need per-link draw streams keyed on something rotation-
invariant yet order-insensitive; nothing of the sort is attempted here.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Optional, Set, Tuple

from repro.ring.configuration import Configuration
from repro.sim.engine import Engine

__all__ = [
    "action_node",
    "conflict",
    "revisit",
    "sleep_after",
    "slots_of_agents",
    "agents_of_slots",
]


def action_node(engine: Engine, agent_id: int) -> int:
    """The node whose local state ``agent_id``'s next action touches.

    A staying agent acts at its current node; a queued agent's dequeue
    acts at the node its link feeds; a link actor (negative pseudo-id,
    only under active link faults) acts at the node its link enters.
    """
    if agent_id < 0:
        return -agent_id - 1
    _, node = engine.ring.locate(agent_id)
    return node


def conflict(ring_size: int, node_a: int, node_b: int) -> bool:
    """Dependence between enabled actions: same action node.

    See the module docstring for why distinct action nodes always
    commute in this engine (adjacent-link tail enqueues included).
    """
    return node_a % ring_size == node_b % ring_size


def sleep_after(
    engine: Engine, slept: AbstractSet[int], acting: int, ring_size: int
) -> Set[int]:
    """The sleep set inherited by the successor reached via ``acting``.

    Called on the child engine *before* it steps, so agent locations are
    still the source state's.  An agent stays asleep across ``acting``'s
    transition only if it is independent of it — a different action
    node — because only then does the commuting argument (its successor
    is covered via the explored sibling) carry over.
    """
    if not slept:
        return set()
    acting_node = action_node(engine, acting)
    keep: Set[int] = set()
    for agent_id in slept:
        if agent_id == acting:
            continue
        if not conflict(ring_size, acting_node, action_node(engine, agent_id)):
            keep.add(agent_id)
    return keep


def slots_of_agents(
    snapshot: Configuration, agent_ids: Iterable[int]
) -> frozenset:
    """Map concrete agent ids to canonical slots for memo storage."""
    ids = tuple(agent_ids)
    if not ids:
        return frozenset()
    layout = snapshot.packed_layout()[1]
    index = {agent_id: slot for slot, agent_id in enumerate(layout)}
    return frozenset(index[agent_id] for agent_id in ids)


def agents_of_slots(snapshot: Configuration, slots: Iterable[int]) -> Set[int]:
    """Map canonical slots back to this snapshot's concrete agent ids."""
    layout = snapshot.packed_layout()[1]
    return {layout[slot] for slot in slots}


def revisit(
    stored: frozenset, sleep_slots: frozenset
) -> Optional[Tuple[frozenset, frozenset]]:
    """The sleep-set revisit rule for a state already in the memo.

    ``stored`` are the slots the state was last explored under and
    ``sleep_slots`` those the new path arrives with.  Returns ``None``
    when everything the stored visit slept through is slept here too (a
    pure memo hit), else ``(reopen, merged)``: the slots to re-expand
    and the smaller set to store in their place.
    """
    if stored <= sleep_slots:
        return None
    return stored - sleep_slots, stored & sleep_slots
