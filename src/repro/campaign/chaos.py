"""Deterministic crash-fault injection for campaign workers.

The coordinator's fault tolerance is only trustworthy if it is tested
the way the engine is: against *reproducible* adversity.  A
:class:`ChaosPlan` turns a seed into a pure function from
``(unit key, attempt, injection point)`` to a fault decision — no RNG
state, no wall clock — so a chaos-disturbed campaign is replayable bit
for bit, and the acceptance test can demand its final store be
byte-identical to an undisturbed serial run.

Fault kinds (the ISSUE's menagerie):

* ``kill``    — ``SIGKILL`` the worker process.  Injected at the
  ``start`` point (before any work) or the ``mid`` point (after the
  unit's result is computed but *before* it streams into the store) —
  the mid-cell crash that loses in-flight work and forces a re-issue.
* ``stall``   — the slow-loris worker: sleep while the heartbeat
  thread keeps dutifully renewing the lease.  Only the per-unit
  wall-clock deadline catches this one.
* ``silence`` — stop heartbeating, then sleep.  The lease TTL catches
  it even though the process is alive.
* ``poison``  — any unit whose key starts with a configured prefix is
  killed at *every* attempt: the permanently wedged unit that must
  exhaust the retry budget and land in quarantine.

Decisions hash the attempt number, so a unit killed on its first
attempt usually survives its re-issue — the campaign converges — while
poison prefixes never relent.  Probabilities are per *(unit, attempt)*,
evaluated once at unit start.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.decode import (
    field_default, parse_key_values, read_document, read_float, read_int,
)
from repro.errors import ConfigurationError

__all__ = ["ChaosFault", "ChaosPlan", "parse_chaos_spec"]

#: Where in a unit's execution a fault fires.
_POINTS = ("start", "mid")

_FAULT_KINDS = ("kill", "stall", "silence")


def _unit_fraction(seed: int, kind: str, unit_key: str, attempt: int) -> float:
    """A deterministic uniform [0, 1) draw for one fault decision."""
    digest = hashlib.blake2b(
        f"chaos|{seed}|{kind}|{unit_key}|{attempt}".encode("utf-8"),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


@dataclass(frozen=True)
class ChaosFault:
    """One concrete injected fault: what, and at which point."""

    kind: str  # kill | stall | silence
    point: str  # start | mid
    seconds: float = 0.0  # sleep length for stall/silence

    def describe(self) -> str:
        where = "mid-unit" if self.point == "mid" else "at start"
        if self.kind == "kill":
            return f"SIGKILL {where}"
        return f"{self.kind} {self.seconds:.2f}s {where}"


@dataclass(frozen=True)
class ChaosPlan:
    """A seed-derived, serializable schedule of worker faults.

    ``kill``/``stall``/``silence`` are per-(unit, attempt)
    probabilities in [0, 1]; ``poison`` lists unit-key prefixes that
    are killed unconditionally on every attempt.  ``stall_seconds`` and
    ``silence_seconds`` size the sleeps — set them comfortably past the
    campaign's unit timeout and lease TTL respectively, or the faults
    are too gentle to trigger anything.
    """

    seed: int = 0
    kill: float = 0.0
    stall: float = 0.0
    silence: float = 0.0
    stall_seconds: float = 30.0
    silence_seconds: float = 30.0
    poison: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name, value in (
            ("kill", self.kill),
            ("stall", self.stall),
            ("silence", self.silence),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"chaos {name} probability must be in [0, 1], got {value}"
                )
        if self.stall_seconds <= 0 or self.silence_seconds <= 0:
            raise ConfigurationError("chaos sleep durations must be > 0")
        for prefix in self.poison:
            if not prefix:
                raise ConfigurationError("chaos poison prefixes must be non-empty")

    @property
    def active(self) -> bool:
        return bool(
            self.kill or self.stall or self.silence or self.poison
        )

    # -- decisions -----------------------------------------------------------

    def decide(self, unit_key: str, attempt: int) -> Optional[ChaosFault]:
        """The fault (if any) for this execution attempt of this unit.

        Pure: same plan, unit and attempt always decide identically,
        in every process, on every host.  Poison outranks everything;
        otherwise kill, stall, silence are tried in that fixed order
        with independent draws, and a kill flips a second coin for its
        injection point (start vs mid-cell).
        """
        if any(unit_key.startswith(prefix) for prefix in self.poison):
            return ChaosFault(kind="kill", point="start")
        if _unit_fraction(self.seed, "kill", unit_key, attempt) < self.kill:
            point_draw = _unit_fraction(self.seed, "kill-point", unit_key, attempt)
            return ChaosFault(
                kind="kill", point="mid" if point_draw < 0.5 else "start"
            )
        if _unit_fraction(self.seed, "stall", unit_key, attempt) < self.stall:
            return ChaosFault(
                kind="stall", point="start", seconds=self.stall_seconds
            )
        if _unit_fraction(self.seed, "silence", unit_key, attempt) < self.silence:
            return ChaosFault(
                kind="silence", point="start", seconds=self.silence_seconds
            )
        return None

    # -- execution (worker side) ---------------------------------------------

    def inject(
        self,
        fault: Optional[ChaosFault],
        point: str,
        *,
        heartbeat_stop: Optional[object] = None,
    ) -> None:
        """Perform ``fault`` if it fires at ``point`` (worker process).

        ``kill`` never returns.  ``silence`` sets ``heartbeat_stop``
        (a :class:`threading.Event`) before sleeping so the worker goes
        quiet; ``stall`` sleeps with heartbeats still flowing.  The
        sleeps are plain ``time.sleep`` — the coordinator is expected
        to SIGKILL the worker once the lease expires, so the sleep
        length only needs to exceed the relevant deadline.
        """
        if fault is None or fault.point != point:
            return
        if fault.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)  # never returns
        if fault.kind == "silence" and heartbeat_stop is not None:
            heartbeat_stop.set()
        time.sleep(fault.seconds)

    # -- serialisation (plans cross the fork into workers) -------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "kill": self.kill,
            "stall": self.stall,
            "silence": self.silence,
            "stall_seconds": self.stall_seconds,
            "silence_seconds": self.silence_seconds,
            "poison": list(self.poison),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChaosPlan":
        read_document(data, "chaos plan", cls.__dataclass_fields__)
        poison = data.get("poison", field_default(cls, "poison"))
        if not isinstance(poison, (list, tuple)):
            message = f"chaos plan 'poison' must be a list, got {poison!r}"
            raise ConfigurationError(message)
        return cls(
            seed=read_int(data, "seed", cls, label="chaos plan"),
            **{
                name: read_float(data, name, cls, label="chaos plan")
                for name in (
                    "kill", "stall", "silence", "stall_seconds", "silence_seconds"
                )
            },
            poison=tuple(poison),
        )

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for name in _FAULT_KINDS:
            value = getattr(self, name)
            if value:
                parts.append(f"{name}={value:g}")
        if self.poison:
            parts.append(f"poison={','.join(self.poison)}")
        return "chaos(" + " ".join(parts) + ")"


def parse_chaos_spec(text: str) -> ChaosPlan:
    """Parse the CLI's ``--chaos`` string into a plan.

    Comma-separated ``key=value`` pairs over the plan's fields, e.g.
    ``seed=7,kill=0.4,stall=0.1,silence=0.1`` or
    ``kill=0.3,poison=ab12`` (``poison`` may repeat for several
    prefixes).  A bare ``--chaos seed=N`` with no probabilities is
    rejected — it would inject nothing and silently test nothing.
    """
    readers = dict.fromkeys(ChaosPlan.__dataclass_fields__, float)
    readers.update(seed=int, poison=str)
    values = parse_key_values(text, "chaos", readers, repeated=("poison",))
    plan = ChaosPlan.from_dict(values)
    if not plan.active:
        raise ConfigurationError(
            "chaos spec injects nothing; give at least one of "
            "kill/stall/silence probabilities or a poison prefix"
        )
    return plan
