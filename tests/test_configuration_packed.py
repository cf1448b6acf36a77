"""The packed canonical encoding: injective, symmetric, stable.

Every state rung (model-checker memo, POR sleep slots, fuzz coverage,
``Configuration`` equality) keys states on packed bytes hashed with
blake2b (:meth:`~repro.ring.configuration.Configuration.packed_layout`).
These tests pin the contract from several sides, against the
independent ``repr``-tuple oracle
:func:`reference_impls.reference_canonical`:

* **Hypothesis invariance** — both the reference form and the packed
  ``packed()``/``canonical_key()`` encodings are invariant under a
  random ring rotation composed with a random agent relabelling, and
  both distinguish a mutated configuration from its original.
* **Partition differential** — on breadth-first walks of real engine
  state spaces, the packed key partitions states *identically* to the
  reference one (no splits, no merges); the mc-marked variant covers the
  full exhaustive verification grid.
* **Least rotation** — the linear scan picks exactly the brute-force
  minimum, lowest index on ties.
* **Golden keys** — fixed snapshots keep their ``canonical_key()``
  bytes, so spilled frontiers and archived coverage stay valid.
* **Slot layout** — ``packed_layout`` enumerates every agent exactly
  once, in a relabelling-stable order (the POR sleep sets depend on it).
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_impls import reference_canonical
from repro.experiments.runner import build_engine
from repro.registry import algorithm_names
from repro.ring.configuration import Configuration, least_rotation, pack_value
from repro.ring.faults import LinkSpec
from repro.ring.placement import Placement


# ----------------------------------------------------------------------
# Random configurations (pure data: no engine invariants required)
# ----------------------------------------------------------------------

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.sampled_from(["seek", "settle", "probe", ""]),
)
_PAYLOADS = st.tuples(_SCALARS, _SCALARS, _SCALARS)


@st.composite
def configurations(draw):
    ring_size = draw(st.integers(min_value=3, max_value=8))
    agent_count = draw(st.integers(min_value=1, max_value=4))
    locations = draw(
        st.lists(
            st.tuples(st.integers(0, ring_size - 1), st.booleans()),
            min_size=agent_count,
            max_size=agent_count,
        )
    )
    staying = {node: [] for node in range(ring_size)}
    queues = {node: [] for node in range(ring_size)}
    for agent_id, (node, stays) in enumerate(locations):
        (staying if stays else queues)[node].append(agent_id)
    agent_states = {
        agent_id: draw(_PAYLOADS) for agent_id in range(agent_count)
    }
    inboxes = {
        agent_id: tuple(draw(st.lists(_SCALARS, max_size=2)))
        for agent_id in range(agent_count)
    }
    started = {
        agent_id: draw(st.booleans()) for agent_id in range(agent_count)
    }
    tokens = tuple(
        draw(st.integers(0, 2)) for _ in range(ring_size)
    )
    return Configuration(
        ring_size=ring_size,
        agent_states=agent_states,
        tokens=tokens,
        inbox_sizes={a: len(inboxes[a]) for a in inboxes},
        staying={n: tuple(sorted(a)) for n, a in staying.items()},
        queues={n: tuple(a) for n, a in queues.items()},
        inboxes=inboxes,
        started=started,
    )


def _transform(config: Configuration, shift: int, perm: dict) -> Configuration:
    """Rotate the ring by ``shift`` and relabel agents by ``perm``."""
    n = config.ring_size
    return Configuration(
        ring_size=n,
        agent_states={perm[a]: s for a, s in config.agent_states.items()},
        tokens=tuple(config.tokens[(node - shift) % n] for node in range(n)),
        inbox_sizes={perm[a]: v for a, v in config.inbox_sizes.items()},
        staying={
            (node + shift) % n: tuple(sorted(perm[a] for a in agents))
            for node, agents in config.staying.items()
        },
        queues={
            (node + shift) % n: tuple(perm[a] for a in agents)
            for node, agents in config.queues.items()
        },
        inboxes={perm[a]: v for a, v in config.inboxes.items()},
        started={perm[a]: v for a, v in config.started.items()},
    )


@given(config=configurations(), data=st.data())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_both_encodings_invariant_under_rotation_and_relabelling(config, data):
    n = config.ring_size
    agents = sorted(config.agent_states)
    shift = data.draw(st.integers(0, n - 1), label="shift")
    perm_values = data.draw(st.permutations(agents), label="perm")
    perm = dict(zip(agents, perm_values))
    other = _transform(config, shift, perm)
    assert reference_canonical(config) == reference_canonical(other)
    assert config.packed() == other.packed()
    assert config.canonical_key() == other.canonical_key()


@given(config=configurations(), data=st.data())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_both_encodings_distinguish_mutations(config, data):
    n = config.ring_size
    agents = sorted(config.agent_states)
    mutation = data.draw(
        st.sampled_from(["token", "started", "inbox"]), label="mutation"
    )
    if mutation == "token":
        node = data.draw(st.integers(0, n - 1), label="node")
        tokens = list(config.tokens)
        tokens[node] += 1  # total token count changes: no orbit aliasing
        mutated = Configuration(
            ring_size=n,
            agent_states=config.agent_states,
            tokens=tuple(tokens),
            inbox_sizes=config.inbox_sizes,
            staying=config.staying,
            queues=config.queues,
            inboxes=config.inboxes,
            started=config.started,
        )
    elif mutation == "started":
        agent = data.draw(st.sampled_from(agents), label="agent")
        started = dict(config.started)
        started[agent] = not started[agent]
        # Flipping one flag changes the global started count, which no
        # rotation/relabelling can restore.
        mutated = Configuration(
            ring_size=n,
            agent_states=config.agent_states,
            tokens=config.tokens,
            inbox_sizes=config.inbox_sizes,
            staying=config.staying,
            queues=config.queues,
            inboxes=config.inboxes,
            started=started,
        )
    else:
        agent = data.draw(st.sampled_from(agents), label="agent")
        inboxes = {a: tuple(v) for a, v in config.inboxes.items()}
        inboxes[agent] = inboxes[agent] + ("mutated-message",)
        mutated = Configuration(
            ring_size=n,
            agent_states=config.agent_states,
            tokens=config.tokens,
            inbox_sizes={a: len(v) for a, v in inboxes.items()},
            staying=config.staying,
            queues=config.queues,
            inboxes=inboxes,
            started=config.started,
        )
    assert reference_canonical(config) != reference_canonical(mutated)
    assert config.packed() != mutated.packed()
    assert config.canonical_key() != mutated.canonical_key()


# ----------------------------------------------------------------------
# pack_value: injective, self-delimiting
# ----------------------------------------------------------------------

def _packed_bytes(value) -> bytes:
    out = bytearray()
    pack_value(value, out)
    return bytes(out)


def test_pack_value_separates_confusable_values():
    # Values whose reprs or str-forms could collide must pack apart.
    confusable = [
        None,
        True,
        False,
        0,
        1,
        -1,
        12,
        (1, 2),
        ((1,), 2),
        (1, (2,)),
        ("1", 2),
        "12",
        b"12",
        "",
        (),
        ("",),
        ((),),
    ]
    packed = [_packed_bytes(v) for v in confusable]
    assert len(set(packed)) == len(confusable)


def test_pack_value_concatenation_unambiguous():
    # (a, b) vs (a', b') with a+b == a'+b' as strings must still differ.
    assert _packed_bytes(("ab", "c")) != _packed_bytes(("a", "bc"))
    assert _packed_bytes((1, 23)) != _packed_bytes((12, 3))


# ----------------------------------------------------------------------
# Partition differential against the reference canonical form
# ----------------------------------------------------------------------

def _walk_and_compare(
    algorithm: str, placement: Placement, limit: int, links=None
) -> int:
    """BFS the real state space; assert both keys partition alike."""
    root = build_engine(
        algorithm, placement, collect_metrics=False, links=links
    )
    frontier = deque([root])
    new_by_old: dict = {}
    old_by_new: dict = {}
    seen = set()
    states = 0
    while frontier and states < limit:
        engine = frontier.popleft()
        snapshot = engine.snapshot()
        states += 1
        old_key = repr(reference_canonical(snapshot))
        new_key = snapshot.canonical_key()
        if old_key in new_by_old:
            assert new_by_old[old_key] == new_key, "old-equal states split"
        else:
            new_by_old[old_key] = new_key
        if new_key in old_by_new:
            assert old_by_new[new_key] == old_key, "old-distinct states merged"
        else:
            old_by_new[new_key] = old_key
        if new_key in seen:
            continue
        seen.add(new_key)
        for agent_id in engine.enabled_agents():
            child = engine.fork()
            child.step(agent_id)
            frontier.append(child)
    return len(seen)


@pytest.mark.parametrize("algorithm", algorithm_names())
def test_packed_key_partitions_like_canonical_small(algorithm):
    distinct = _walk_and_compare(algorithm, Placement(6, homes=(0, 2)), limit=600)
    assert distinct > 10


@pytest.mark.parametrize("algorithm", ["known_k_logspace", "unknown"])
def test_packed_key_partitions_like_canonical_faulty(algorithm):
    links = LinkSpec(delay=1, dup=1, seed=3)
    distinct = _walk_and_compare(
        algorithm, Placement(5, homes=(0, 2)), limit=600, links=links
    )
    assert distinct > 10


@pytest.mark.mc
@pytest.mark.parametrize("algorithm", algorithm_names())
@pytest.mark.parametrize("n,k", [(6, 2), (6, 3), (8, 2)])
def test_packed_key_partitions_like_canonical_grid(algorithm, n, k):
    from repro.mc import all_placements

    for placement in all_placements(n, k, dedupe_rotations=False):
        _walk_and_compare(algorithm, placement, limit=100_000)


# ----------------------------------------------------------------------
# Least rotation
# ----------------------------------------------------------------------

def _brute_least_rotation(seq) -> int:
    return min(range(len(seq)), key=lambda r: seq[r:] + seq[:r])


_BLOCKS = st.sampled_from([b"I0;P0:Q0:", b"I1;P0:Q0:", b"I0;P1:x", b"I0;P", b"*"])


@given(seq=st.lists(_BLOCKS, min_size=1, max_size=24))
@settings(max_examples=300, deadline=None)
def test_least_rotation_matches_brute_force(seq):
    assert least_rotation(seq) == _brute_least_rotation(seq)


@given(
    block=st.lists(st.integers(0, 2), min_size=1, max_size=5),
    repeats=st.integers(1, 6),
    shift=st.integers(0, 29),
)
@settings(max_examples=300, deadline=None)
def test_least_rotation_ties_pick_the_lowest_index(block, repeats, shift):
    # Periodic sequences have one minimal rotation per period: the scan
    # must return the first, exactly like min(range(n), key=...).
    seq = block * repeats
    shift %= len(seq)
    seq = seq[shift:] + seq[:shift]
    best = least_rotation(seq)
    assert best == _brute_least_rotation(seq)
    assert best < len(seq) // repeats


# ----------------------------------------------------------------------
# Golden canonical keys
# ----------------------------------------------------------------------

_GOLDEN = [
    ("known_k_full", 8, (0, 3, 5), None, 0, 0,
     "d9856f9ef30fe3fb91cb00cf92ce7d7e", (0, 1, 2)),
    ("unknown", 10, (0, 3, 7), None, 25, 0,
     "96ed0993ae6f491b6f764d88062813c7", (0, 2, 1)),
    ("known_k_logspace", 9, (0, 1, 4), None, 40, -1,
     "16426cd2c305640780dfa5ac52d7bb82", (1, 0, 2)),
    ("known_n_full", 7, (1, 2), None, 12, -1,
     "7d11c9d9e1ef43eff0c6aed8711b484d", (0, 1)),
    ("unknown", 8, (0, 2, 5), LinkSpec(delay=1, dup=1, seed=3), 20, -1,
     "e8aa81212b729abacd32004823a4d27c", (0,)),
    ("unknown", 8, (0, 2, 5), LinkSpec(delay=2, loss=1, dup=1, seed=5), 30, 0,
     "9b5fadc7abd3abb6ec8ea7956355b18d", (1, 2)),
]


@pytest.mark.parametrize(
    "algorithm,n,homes,links,steps,pick,key,slots", _GOLDEN
)
def test_canonical_key_golden(algorithm, n, homes, links, steps, pick, key, slots):
    # Snapshots reached by a fixed schedule (always the first or the
    # last enabled actor) keep the exact key bytes and slot layout of
    # encoding version MC1.
    engine = build_engine(
        algorithm, Placement(n, homes=homes), links=links
    )
    for _ in range(steps):
        engine.step(engine.enabled_agents()[pick])
    snapshot = engine.snapshot()
    assert snapshot.canonical_key().hex() == key
    assert snapshot.packed_layout()[1] == slots


# ----------------------------------------------------------------------
# Slot layout
# ----------------------------------------------------------------------

def test_packed_layout_enumerates_each_agent_once():
    engine = build_engine(
        "unknown", Placement(8, homes=(0, 3, 5))
    )
    for _ in range(12):
        engine.step(engine.enabled_agents()[0])
        snapshot = engine.snapshot()
        packed, slots = snapshot.packed_layout()
        assert sorted(slots) == sorted(snapshot.agent_states)
        assert snapshot.packed() is packed  # cached on the frozen instance


def test_packed_layout_slots_relabelling_stable():
    # The slot an agent occupies is a function of the anonymous state:
    # relabelled copies put the corresponding agents at the same slots.
    placement = Placement(6, homes=(0, 2))
    first = build_engine("known_k_full", placement)
    second = build_engine("known_k_full", placement)
    for engine in (first, second):
        for _ in range(5):
            engine.step(engine.enabled_agents()[0])
    a = first.snapshot()
    b = second.snapshot()
    assert a.packed() == b.packed()
    layout_a = a.packed_layout()[1]
    layout_b = b.packed_layout()[1]
    payload_a = [a._agent_payload(agent) for agent in layout_a]
    payload_b = [b._agent_payload(agent) for agent in layout_b]
    assert payload_a == payload_b
