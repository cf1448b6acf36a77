"""Global configuration snapshots ``C = (S, T, M, P, Q)`` (paper Table 2).

The engine exposes a :class:`Configuration` snapshot after every atomic
action (on request) and at quiescence.  Snapshots are immutable value
objects used by the verifier, the trace recorder, the impossibility
experiment (which compares *local configurations* of corresponding nodes
in two rings, Lemma 1), the fuzzer's coverage map and the model checker
(which memoises visited states on the snapshot's canonical key).

Canonical form
--------------

Both the nodes and the agents of the model are anonymous: node indices
and agent ids exist only for the simulator's bookkeeping, and every
engine transition is equivariant under rotating the node labels and
permuting the agent ids.  Two configurations related by such a
relabelling are therefore bisimilar — they generate identical future
behaviour.  :meth:`Configuration.packed_layout` quotients both
symmetries out: it re-describes the state namelessly as one byte block
per node (tokens, the staying-agent payloads sorted by their bytes, the
queue as a payload sequence, where a payload is the agent's started
flag + state fingerprint + inbox contents packed by :func:`pack_value`)
and picks the lexicographically least rotation of the block sequence.
:meth:`Configuration.canonical_key` is a 16-byte digest of that form.
Equality and hashing delegate to the key, so a ``set`` or ``dict`` of
configurations deduplicates the whole symmetry orbit — exactly what the
model checker's visited-state memo and the fuzzer's coverage map need.

Engine snapshots carry the per-agent payload bytes precomputed
(``payload_bytes``) through :func:`encode_payload`, which memoises the
bytes of each distinct payload process-wide.  Payloads repeat far more
often than global states do (a search or a fuzz campaign revisits the
same few hundred agent states across thousands of configurations), so
encoding a state costs ``k`` dictionary lookups and a :func:`pack_value`
only for payloads not seen recently.

Link-fault state
----------------

Under an active :class:`repro.ring.faults.LinkSpec` the engine carries
extra state the memo key must see: per-link delay buffers (who is held
on each link and for how many more ticks), phantom duplicate entries
(anonymous ``-1`` payloads in queues and buffers), and the draw
counters (global move ordinal plus spent loss/dup budgets — the future
fault draws are a pure function of these).  ``faults`` holds the
:meth:`repro.ring.network.RingFaults.snapshot` tuple; the packed form
folds the buffers into each node's block *inside* the rotation (they
live on concrete links) and appends the counters as a
rotation-invariant trailer.  Phantoms encode as an anonymous marker —
they carry no agent state and are interchangeable, so relabelling
soundness is preserved.  Lost agents are deliberately *not* encoded:
they never act again, so two states differing only in which (or whose)
agent was dropped — with the same spent budgets — have isomorphic
futures.  With ``faults=None`` every encoding is byte-identical to the
pre-fault format, so reliable-link memo keys and spilled frontiers are
untouched.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Configuration",
    "LocalConfiguration",
    "PACKED_ENCODING_VERSION",
    "encode_payload",
    "least_rotation",
    "pack_value",
]

#: Version tag baked into every packed encoding.  Bump it whenever the
#: byte layout changes so spilled model-checker frontiers keyed on the
#: encoding can never be resumed against an incompatible format.
PACKED_ENCODING_VERSION = "MC1"

#: Packed-form byte for a phantom payload.  Every other payload encoding
#: opens with a :func:`pack_value` type tag (``(`` for the payload
#: tuple), so the single ``*`` parses unambiguously.
_PHANTOM_BYTE = b"*"


def pack_value(value: object, out: bytearray) -> None:
    """Append a deterministic, injective byte encoding of ``value``.

    Every encoded value is *self-delimiting* (type tag + terminator or
    length prefix), so concatenations parse unambiguously — two distinct
    values, or two distinct sequences of values, never share a byte
    string.  Covers the value types agent fingerprints use (``None``,
    bools, ints, strings, bytes, tuples/lists, frozen dataclasses) and
    falls back to tagged ``repr`` for anything exotic; the packed
    canonical form (:meth:`Configuration.packed_layout`) is injective
    exactly because this encoding is.
    """
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        out += b"I%d;" % value
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"S%d:" % len(raw)
        out += raw
    elif isinstance(value, bytes):
        out += b"B%d:" % len(value)
        out += value
    elif isinstance(value, (tuple, list)):
        out += b"(%d:" % len(value)
        for item in value:
            pack_value(item, out)
        out += b")"
    elif is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__.encode("utf-8")
        out += b"D%d:" % len(name)
        out += name
        dataclass_fields = fields(value)
        out += b"(%d:" % len(dataclass_fields)
        for f in dataclass_fields:
            pack_value(getattr(value, f.name), out)
        out += b")"
    else:
        raw = repr(value).encode("utf-8")
        out += b"R%d:" % len(raw)
        out += raw


#: Most payloads :func:`encode_payload` remembers; the memo is emptied
#: when it is full.  The pinned mc cell meets 377 distinct payloads and
#: perfbench's core fuzz campaign 1,643; the cap bounds what a
#: long-running process keeps.
_PAYLOAD_MEMO_CAP = 2048
_PAYLOAD_MEMO: Dict[Tuple[object, object, object], bytes] = {}


def encode_payload(payload: Tuple[object, object, object]) -> bytes:
    """The packed bytes of one agent payload ``(started, state, inbox)``.

    Memoised process-wide on the payload itself, so the memo is exact
    only where ``==`` is as fine as :func:`pack_value`.  Among the
    value types agent fields and messages hold, one pair breaks that:
    ``True == 1`` and ``False == 0`` hash alike but pack as ``T`` /
    ``F`` versus ``I1;`` / ``I0;``.  The rule that
    keeps the memo exact is therefore: no agent field and no message
    field may hold a ``bool`` in one state and an ``int`` in another
    (``tests/test_fingerprint_completeness.py`` checks it on every
    reachable state of its cells).  Unhashable payloads (list-valued
    fields) are packed without the memo.
    """
    try:
        return _PAYLOAD_MEMO[payload]
    except KeyError:
        hashable = True
    except TypeError:
        hashable = False
    out = bytearray()
    pack_value(payload, out)
    encoded = bytes(out)
    if hashable:
        if len(_PAYLOAD_MEMO) >= _PAYLOAD_MEMO_CAP:
            _PAYLOAD_MEMO.clear()
        _PAYLOAD_MEMO[payload] = encoded
    return encoded


def least_rotation(items: Sequence[object]) -> int:
    """Lowest ``r`` minimising ``items[r:] + items[:r]`` lexicographically.

    The two-pointer minimum-rotation scan: ``i`` and ``j`` are the two
    surviving candidate starts and ``k`` the length of their common
    prefix.  On the first mismatch every start in ``[loser, loser + k]``
    is beaten by the matching start of the winner, so the loser jumps
    past them; a candidate is only ever discarded when strictly larger,
    so the survivor is the lowest minimal start.  O(n) comparisons.
    """
    n = len(items)
    doubled = list(items) * 2
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a = doubled[i + k]
        b = doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


@dataclass(frozen=True)
class LocalConfiguration:
    """The local configuration of one node (proof of Theorem 5).

    Lemma 1 compares, node by node, ``(state of v, states of all agents at
    v)``.  Tokens are the node state; agent states are the opaque,
    algorithm-defined state fingerprints of the agents staying at the node
    and of the agents queued on the incoming link, in queue order.
    """

    tokens: int
    staying_states: Tuple[object, ...]
    queued_states: Tuple[object, ...]


@dataclass(frozen=True, eq=False)
class Configuration:
    """An immutable snapshot of the full 5-tuple ``C = (S, T, M, P, Q)``.

    ``agent_states`` maps agent id to an opaque, algorithm-defined state
    fingerprint (``S``); ``tokens`` is the node token vector (``T``);
    ``inbox_sizes`` counts undelivered messages per agent (``M``);
    ``staying`` maps node to the ids of staying agents in sorted order
    (``P``); ``queues`` maps node to the incoming link queue, head first
    (``Q``).

    Two optional refinements make the snapshot an *exact* state key for
    the model checker (engine snapshots always fill them):

    * ``inboxes`` — full undelivered message contents per agent, oldest
      first (``inbox_sizes`` is its lossy projection);
    * ``started`` — whether each agent's protocol has run at
      least once (a never-started agent is observably different from a
      started agent whose declared state happens to look initial).

    Equality and ``hash()`` compare :meth:`canonical_key` (see the module
    docstring): configurations equal up to ring rotation and agent
    relabelling compare equal, distinct states never do.
    """

    ring_size: int
    agent_states: Mapping[int, object]
    tokens: Tuple[int, ...]
    inbox_sizes: Mapping[int, int]
    staying: Mapping[int, Tuple[int, ...]]
    queues: Mapping[int, Tuple[int, ...]]
    inboxes: Optional[Mapping[int, Tuple[object, ...]]] = None
    started: Optional[Mapping[int, bool]] = None
    #: ``RingFaults.snapshot()`` tuple ``(buffers, lost, ordinal,
    #: loss_used, dup_used)`` on a faulty ring, else ``None`` (see the
    #: module docstring for how it enters the packed form).
    faults: Optional[Tuple[object, ...]] = None
    #: Agent id -> :func:`encode_payload` of its payload, precomputed by
    #: the engine; ``None`` packs the payloads from the fields above.
    #: A cache, not state: it never enters equality.
    payload_bytes: Optional[Mapping[int, bytes]] = field(default=None, repr=False)
    _packed: Optional[bytes] = field(default=None, init=False, repr=False)
    _slots: Optional[Tuple[int, ...]] = field(default=None, init=False, repr=False)
    _key: Optional[bytes] = field(default=None, init=False, repr=False)

    # ------------------------------------------------------------------
    # Packed canonical encoding, equality and hashing
    # ------------------------------------------------------------------

    def _agent_payload(self, agent_id: int) -> Tuple[object, ...]:
        """The nameless description of one agent: flag + state + inbox."""
        started = True if self.started is None else self.started.get(agent_id, True)
        if self.inboxes is not None:
            inbox: object = tuple(self.inboxes.get(agent_id, ()))
        else:
            inbox = self.inbox_sizes.get(agent_id, 0)
        return (started, self.agent_states[agent_id], inbox)

    def packed_layout(self) -> Tuple[bytes, Tuple[int, ...]]:
        """Return ``(packed, slot_to_agent)`` — the canonical form.

        ``packed`` is a deterministic byte string invariant under ring
        rotation and agent relabelling: per node (starting from the
        lexicographically least rotation of the byte form, see
        :func:`least_rotation`) it encodes the token count, the
        staying-agent payloads sorted by their encoded bytes, and the
        queued payloads head first, every piece self-delimiting via
        :func:`pack_value`.  Distinct states outside one symmetry orbit
        never share it.

        ``slot_to_agent`` maps *canonical agent slots* (positions in the
        packed traversal order: per canonical node, staying agents in
        their sorted order, then queued agents head first) back to the
        snapshot's concrete agent ids.  The partial-order reducer stores
        sleep sets in slot coordinates so they survive the relabelling
        quotient; ties between identical payloads are broken by agent id,
        which is sound because tied agents are interchangeable under a
        state automorphism.  Phantom queue entries and buffer-held
        agents are excluded from the slot layout: neither is ever
        schedulable as an agent, so neither can appear in a sleep set
        (link actors are never slept — see :mod:`repro.mc.por`).
        """
        if self._packed is not None:
            assert self._slots is not None
            return self._packed, self._slots
        payload_bytes = self.payload_bytes
        if payload_bytes is None:
            payload_bytes = {
                agent_id: encode_payload(self._agent_payload(agent_id))
                for agent_id in self.agent_states
            }
        faults = self.faults
        occupied = {node for node, agents in self.staying.items() if agents}
        occupied.update(node for node, queue in self.queues.items() if queue)
        if faults is None:
            empty_tail = b""
        else:
            buffers, _lost, ordinal, loss_used, dup_used = faults
            empty_tail = b"F0:"
            occupied.update(node for node, held in enumerate(buffers) if held)
        # Nodes with no agent in sight differ only in their token count:
        # they share one block object per count.
        empty = {
            count: b"I%d;P0:Q0:%s" % (count, empty_tail) for count in set(self.tokens)
        }
        blocks = [empty[count] for count in self.tokens]
        node_slots = {}
        for node in occupied:
            staying_ids = sorted(
                self.staying.get(node, ()),
                key=lambda agent_id: (payload_bytes[agent_id], agent_id),
            )
            queued_ids = self.queues.get(node, ())
            block = bytearray()
            block += b"I%d;" % self.tokens[node]
            block += b"P%d:" % len(staying_ids)
            for agent_id in staying_ids:
                block += payload_bytes[agent_id]
            block += b"Q%d:" % len(queued_ids)
            for agent_id in queued_ids:
                if agent_id >= 0:
                    block += payload_bytes[agent_id]
                else:
                    block += _PHANTOM_BYTE
            if faults is not None:
                # Delay buffer of the link into this node, head first:
                # payload encoding + remaining ticks, inside the
                # rotation because buffers sit on concrete links.
                held = buffers[node]
                block += b"F%d:" % len(held)
                for payload, remaining in held:
                    if payload >= 0:
                        block += payload_bytes[payload]
                    else:
                        block += _PHANTOM_BYTE
                    block += b"I%d;" % remaining
            blocks[node] = bytes(block)
            node_slots[node] = tuple(staying_ids) + tuple(
                agent_id for agent_id in queued_ids if agent_id >= 0
            )
        size = self.ring_size
        best = least_rotation(blocks)
        packed = b"%s;I%d;%s" % (
            PACKED_ENCODING_VERSION.encode("ascii"),
            size,
            b"".join(blocks[best:] + blocks[:best]),
        )
        if faults is not None:
            # Rotation-invariant trailer: the draw counters that fix
            # every future fault decision.  ``F;`` cannot open a node
            # block (those start with ``I``), so the trailer parses
            # unambiguously after the ``size`` blocks.
            packed += b"F;I%d;I%d;I%d;" % (ordinal, loss_used, dup_used)
        slots: Tuple[int, ...] = tuple(
            agent_id
            for node in sorted(node_slots, key=lambda node: (node - best) % size)
            for agent_id in node_slots[node]
        )
        object.__setattr__(self, "_packed", packed)
        object.__setattr__(self, "_slots", slots)
        return packed, slots

    def packed(self) -> bytes:
        """The rotation/relabelling-invariant packed byte encoding."""
        return self.packed_layout()[0]

    def canonical_key(self) -> bytes:
        """A 16-byte blake2b digest of :meth:`packed` — the state key.

        Collisions are cryptographically negligible at 128 bits, so the
        model checker memoises on the digest instead of the full packed
        form, cutting memo memory to a small constant per state.
        """
        if self._key is not None:
            return self._key
        key = hashlib.blake2b(self.packed(), digest_size=16).digest()
        object.__setattr__(self, "_key", key)
        return key

    #: The rotation- and relabelling-invariant state key, under its
    #: historical name.
    canonical = canonical_key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def local(self, node: int) -> LocalConfiguration:
        """Return the local configuration of ``node`` (Lemma 1's unit).

        Phantom queue entries (duplicated deliveries under link faults)
        carry no agent state and are skipped; Lemma 1 compares reliable
        executions, where no phantom ever exists.
        """
        staying_states = tuple(
            self.agent_states[agent_id] for agent_id in self.staying.get(node, ())
        )
        queued_states = tuple(
            self.agent_states[agent_id]
            for agent_id in self.queues.get(node, ())
            if agent_id >= 0
        )
        return LocalConfiguration(
            tokens=self.tokens[node],
            staying_states=staying_states,
            queued_states=queued_states,
        )

    def occupied_nodes(self) -> Tuple[int, ...]:
        """Nodes with at least one staying agent, in ring order."""
        return tuple(sorted(node for node, agents in self.staying.items() if agents))

    def all_queues_empty(self) -> bool:
        """True when no agent is in transit."""
        return all(not queue for queue in self.queues.values())

    def total_messages_pending(self) -> int:
        """Total undelivered messages across all agents."""
        return sum(self.inbox_sizes.values())
