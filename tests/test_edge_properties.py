"""Edge properties and the structural audit on forged snapshots.

:class:`~repro.mc.properties.FifoLinkIntegrity` and
:class:`~repro.mc.properties.TokenMonotonicity` compare the snapshot of
the source state (``pre``) with the snapshot of the destination, and
:func:`~repro.analysis.verification.audit_configuration` audits one
snapshot.  Drivers only ever hand them sound engine states, so these
tests forge the broken ones and pin every message verbatim: a
counterexample's message is part of its replay contract.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.analysis.verification import audit_configuration
from repro.mc.properties import FifoLinkIntegrity, TokenMonotonicity
from repro.ring.configuration import Configuration


def _snapshot(tokens, queues, staying=None, agents=(), **extra):
    size = len(tokens)
    return Configuration(
        ring_size=size,
        agent_states={agent_id: ("s",) for agent_id in agents},
        tokens=tokens,
        inbox_sizes=extra.pop("inbox_sizes", {agent_id: 0 for agent_id in agents}),
        staying={node: () for node in range(size)} if staying is None else staying,
        queues=dict(enumerate(queues)),
        **extra,
    )


def _engine(faulty):
    """The one engine attribute the edge properties read."""
    return SimpleNamespace(ring=SimpleNamespace(faults=object() if faulty else None))


EMPTY = ((), (), (), ())
ZERO = (0, 0, 0, 0)

# (acted, pre queues, post queues, faulty ring, expected message)
FIFO_EDGES = {
    "unchanged": (0, EMPTY, EMPTY, False, None),
    "tail-enter": (0, EMPTY, ((), (0,), (), ()), False, None),
    "head-leave": (1, ((), (1, 2), (), ()), ((), (2,), (), ()), False, None),
    "leave-and-enter": (1, ((), (1, 2), (), ()), ((), (2,), (1,), ()), False, None),
    "head-leave-then-tail-enter": (1, ((), (1, 2), (), ()), ((), (2, 1), (), ()), False, None),
    "reorder": (
        1, ((), (1, 2, 3), (), ()), ((), (3, 2), (), ()), False,
        "queue into node 1 changed (1, 2, 3) -> (3, 2) by agent 1: "
        "not a head-leave/tail-enter",
    ),
    "foreign": (
        0, EMPTY, ((), (0,), (), (3,)), False,
        "queue into node 3 changed () -> (3,) by agent 0: "
        "not a head-leave/tail-enter",
    ),
    "phantom-on-reliable-ring": (
        0, EMPTY, ((), (0, -1), (), ()), False,
        "queue into node 1 changed () -> (0, -1) by agent 0: "
        "not a head-leave/tail-enter",
    ),
    "phantom-behind-on-faulty-ring": (0, EMPTY, ((), (0, -1), (), ()), True, None),
    "link-actor-of-another-link": (
        -2, ((), (), (-1,), ()), EMPTY, True,
        "queue into node 2 changed (-1,) -> () by link actor -2 of another link",
    ),
    "link-actor-pops-phantom": (-3, ((), (), (-1, 4), ()), ((), (), (4,), ()), True, None),
    "link-actor-delivers": (-3, ((), (), (4,), ()), ((), (), (4, 5), ()), True, None),
    "link-actor-drops-agent": (
        -3, ((), (), (4, 5), ()), ((), (), (5,), ()), True,
        "queue into node 2 changed (4, 5) -> (5,) by link actor -3: "
        "not a phantom-pop/buffer-delivery",
    ),
}


@pytest.mark.parametrize("name", sorted(FIFO_EDGES))
def test_fifo_link_integrity_messages(name):
    acted, before, after, faulty, expected = FIFO_EDGES[name]
    pre, post = _snapshot(ZERO, before), _snapshot(ZERO, after)
    assert FifoLinkIntegrity().check(pre, _engine(faulty), post, acted) == expected


@pytest.mark.parametrize(
    "before,after,expected",
    [
        ((0, 1, 0, 0), (0, 1, 0, 0), None),
        ((0, 0, 0, 0), (0, 1, 0, 0), None),
        ((1, 1, 0, 0), (1, 0, 0, 0),
         "token count decreased: (1, 1, 0, 0) -> (1, 0, 0, 0)"),
        ((0, 0, 0, 0), (1, 1, 0, 0),
         "more than one token released in one action: (0, 0, 0, 0) -> (1, 1, 0, 0)"),
    ],
)
def test_token_monotonicity_messages(before, after, expected):
    pre, post = _snapshot(before, EMPTY), _snapshot(after, EMPTY)
    assert TokenMonotonicity().check(pre, _engine(False), post, 0) == expected


def _stay(**nodes):
    staying = {node: () for node in range(4)}
    staying.update({int(node[1:]): agents for node, agents in nodes.items()})
    return staying


AGENTS = (0, 1, 2)

# name -> (snapshot, expected failures)
AUDITS = {
    "sound": (
        _snapshot(ZERO, ((), (), (), (2, -1)), _stay(n0=(0,), n2=(1,)), AGENTS),
        [],
    ),
    "staying-twice": (
        _snapshot(ZERO, ((), (), (), (2,)), _stay(n0=(0, 1), n2=(1,)), AGENTS),
        ["agent 1 at node 2 and staying at 0"],
    ),
    "staying-and-queued": (
        _snapshot(ZERO, ((), (), (), (2, 0)), _stay(n0=(0,), n2=(1,)), AGENTS),
        ["agent 0 queued toward 3 and staying at 0"],
    ),
    "missing-and-unknown": (
        _snapshot(ZERO, ((), (), (), (2,)), _stay(n0=(0, 7)), AGENTS),
        ["agents [1] are nowhere on the ring", "unknown agent ids [7] on the ring"],
    ),
    "negative-counts": (
        _snapshot(
            (0, -1, 0, 0), ((), (), (), (2,)), _stay(n0=(0,), n2=(1,)), AGENTS,
            inbox_sizes={0: -1, 1: 0, 2: 0},
        ),
        ["negative token count in (0, -1, 0, 0)", "negative inbox size"],
    ),
    "inbox-mismatch": (
        _snapshot(
            ZERO, ((), (), (), (2,)), _stay(n0=(0,), n2=(1,)), AGENTS,
            inbox_sizes={0: 0, 1: 2, 2: 0}, inboxes={0: (), 1: ("m",), 2: ()},
        ),
        ["agent 1: inbox_sizes says 2 but 1 messages recorded"],
    ),
    "faulty": (
        _snapshot(
            ZERO, ((), (), (), (1,)), _stay(n0=(0,)), AGENTS,
            faults=(((), ((1, 1), (-1, 0)), ((2, -1),), ()), frozenset({0, 2}), 5, 1, 1),
        ),
        [
            "agent 1 buffered toward 1 and queued toward 3",
            "negative remaining delay for agent 2",
            "agent 0 lost in transit and staying at 0",
            "agent 2 lost in transit and buffered toward 2",
            "2 agents lost but loss budget shows 1 spent",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(AUDITS))
def test_audit_configuration_messages(name):
    snapshot, expected = AUDITS[name]
    assert audit_configuration(snapshot) == expected
