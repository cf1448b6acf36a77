"""Link-fault models: bounded delay, loss and duplication per link.

Everything upstream of this module assumes the paper's reliable FIFO
links.  A :class:`LinkSpec` opens that assumption: each forward move
puts the agent "on the link", where the link may hold it for up to
``delay`` extra link actions, drop it entirely (at most ``loss`` agents
per run), or deliver a duplicate *phantom* copy behind it (at most
``dup`` phantoms per run).  The spec is frozen, JSON-round-trippable
and content-hashable, so faulty experiments are first-class citizens of
the spec/store/mc/fuzz machinery rather than scheduler hacks.

Determinism discipline (same as :mod:`repro.campaign.chaos`): every
fault decision is a pure function of ``(seed, kind, ordinal)`` through
a blake2b draw — no ambient RNG, no wall clock — so a faulty run
replays bit for bit anywhere.

Why the draw is keyed on a *global move ordinal*, not on the link
index or the agent id: the model checker quotients the state space by
ring rotation and agent relabelling
(:meth:`repro.ring.configuration.Configuration.canonical_key`).  That
quotient is sound only if two symmetric states have isomorphic
futures.  A draw keyed on the concrete link index (or agent id) would
break under rotation (relabelling): the "same" state reached via two
rotations would draw different faults and diverge.  Keying on the
label-invariant count of prior move-onto-link events keeps every
fault decision equivariant: rotate or relabel a configuration and the
drawn faults rotate/relabel with it.  (The ordinal is part of the
fault state and therefore of the packed canonical encoding, which is
exactly what makes memoising faulty states sound.)

The link itself becomes schedulable: the *link actor* of the link into
node ``v`` has the pseudo agent id ``-(v + 1)``.  It appears in the
engine's enabled set whenever the link has work to do (a non-empty
delay buffer, or a phantom at the queue head), so schedulers, the
model checker and the fuzzer all reason about delayed delivery as just
another enabled action.  FIFO is preserved under pure delay — the
delay buffer is itself FIFO and drains into the queue in send order —
and relaxed only by duplication (phantoms are extra deliveries).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.decode import parse_key_values, read_document, read_int
from repro.errors import ConfigurationError

__all__ = [
    "LinkSpec",
    "PHANTOM",
    "fault_fraction",
    "format_link_spec",
    "is_link_actor",
    "link_actor",
    "link_node",
    "parse_link_spec",
]

#: Queue/buffer payload marking a duplicated (phantom) delivery.  Real
#: agent ids are non-negative, so ``-1`` is unambiguous inside a queue;
#: phantoms are anonymous and interchangeable — they carry no agent
#: state and are consumed (discarded) by the link actor at the head.
PHANTOM = -1


def link_actor(node: int) -> int:
    """The pseudo agent id of the fault actor of the link into ``node``."""
    return -(node + 1)


def link_node(actor_id: int) -> int:
    """The destination node of the link actor ``actor_id``."""
    return -actor_id - 1


def is_link_actor(actor_id: int) -> bool:
    """Whether an enabled-set / activation-log id names a link actor."""
    return actor_id < 0


def fault_fraction(seed: int, kind: str, ordinal: int) -> float:
    """A deterministic uniform [0, 1) draw for one fault decision.

    Pure function of its arguments (blake2b, the
    :func:`repro.campaign.chaos._unit_fraction` discipline): identical
    in every process, on every host, in every replay.
    """
    digest = hashlib.blake2b(
        f"links|{seed}|{kind}|{ordinal}".encode("utf-8"),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


@dataclass(frozen=True)
class LinkSpec:
    """The fault envelope of every link of one ring (frozen, hashable).

    ``delay`` bounds the extra link actions any single delivery may be
    held for (0 = immediate, the reliable behaviour); ``loss`` bounds
    the *total* number of agents the run may drop in transit; ``dup``
    bounds the total number of phantom duplicate deliveries.  ``seed``
    decorrelates the draw stream between otherwise identical specs.

    ``LinkSpec(0, 0, 0)`` is *inactive* — semantically identical to no
    spec at all, and normalised away by every spec container so the
    content hash of a reliable experiment never changes.
    """

    delay: int = 0
    loss: int = 0
    dup: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("delay", "loss", "dup", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"link {name} must be an int, got {value!r}"
                )
            if value < 0:
                raise ConfigurationError(
                    f"link {name} must be >= 0, got {value}"
                )

    @property
    def active(self) -> bool:
        """Whether this spec can inject any fault at all."""
        return bool(self.delay or self.loss or self.dup)

    # -- deterministic draws -------------------------------------------------

    def draw_loss(self, ordinal: int) -> bool:
        """Whether move event ``ordinal`` loses its agent (budget aside)."""
        return fault_fraction(self.seed, "loss", ordinal) < 0.5

    def draw_dup(self, ordinal: int) -> bool:
        """Whether move event ``ordinal`` spawns a phantom (budget aside)."""
        return fault_fraction(self.seed, "dup", ordinal) < 0.5

    def draw_delay(self, ordinal: int) -> int:
        """The delay in [0, ``delay``] drawn for move event ``ordinal``."""
        if self.delay == 0:
            return 0
        return int(fault_fraction(self.seed, "delay", ordinal) * (self.delay + 1))

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, int]:
        return {
            "delay": self.delay,
            "loss": self.loss,
            "dup": self.dup,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LinkSpec":
        read_document(data, "link spec", cls.__dataclass_fields__)
        return cls(
            **{
                name: read_int(data, name, cls, label="link spec")
                for name in cls.__dataclass_fields__
            }
        )

    def describe(self) -> str:
        parts = [
            f"{name}={getattr(self, name)}"
            for name in ("delay", "loss", "dup")
            if getattr(self, name)
        ]
        parts.append(f"seed={self.seed}")
        return "links(" + " ".join(parts) + ")"


def parse_link_spec(text: str) -> LinkSpec:
    """Parse the CLI's ``--links`` string into a :class:`LinkSpec`.

    Comma-separated ``key=value`` pairs over the spec's fields, e.g.
    ``delay=2,seed=7`` or ``delay=1,loss=1,dup=1``.  A string that
    injects nothing (``seed=3`` alone) is rejected — it would silently
    test the reliable model under a faulty-looking flag.
    """
    values = parse_key_values(
        text, "links", dict.fromkeys(LinkSpec.__dataclass_fields__, int)
    )
    spec = LinkSpec.from_dict(values)
    if not spec.active:
        raise ConfigurationError(
            "links spec injects nothing; give at least one of "
            "delay/loss/dup bounds"
        )
    return spec


def format_link_spec(spec: Optional[LinkSpec]) -> str:
    """The canonical ``--links`` string of ``spec`` (inverse of parse)."""
    if spec is None or not spec.active:
        return ""
    parts = [
        f"{name}={getattr(spec, name)}"
        for name in ("delay", "loss", "dup")
        if getattr(spec, name)
    ]
    if spec.seed:
        parts.append(f"seed={spec.seed}")
    return ",".join(parts)
