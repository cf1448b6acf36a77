"""Lease-based unit coordination: the campaign protocol's pure core.

A campaign decomposes into spec-hash-keyed work units; the coordinator
hands each unit to a worker under an *expiring lease* and the layer
here decides, with no I/O and no real clock, everything that makes the
protocol safe:

* :class:`Lease` / :class:`LeaseTable` — at most one live lease per
  unit, heartbeat renewal against a monotonic clock, two independent
  expiry causes (heartbeat silence past the TTL, and a hard per-unit
  wall-clock deadline that renewal can never extend — the slow-loris
  backstop),
* :func:`backoff_delay` — exponential re-issue backoff with
  *deterministic* jitter (hash of unit key and attempt, not an RNG),
  so retries spread out yet campaigns replay exactly,
* :class:`UnitTracker` — the unit state machine
  (``pending -> leased -> completed | quarantined``, plus ``cached``
  for resume hits) enforcing the retry budget: a unit whose lease
  expired ``max_retries + 1`` times is quarantined as a poison
  artifact rather than re-issued forever.

Everything is injected-clock and therefore property-testable: the
hypothesis suite drives arbitrary issue/renew/expire/kill schedules
through these classes and asserts no unit is ever double-leased and no
unit is ever lost (see ``tests/test_lease.py``).  Real execution can
still be at-least-once — a worker whose lease expired may be mid-run
when it is killed — which is why completions stream into the
content-addressed :class:`~repro.store.jsonl.RunStore`, where duplicate
puts of deterministic records are idempotent.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError

__all__ = [
    "Lease",
    "LeaseTable",
    "UnitTracker",
    "backoff_delay",
]


def backoff_delay(
    unit_key: str,
    attempt: int,
    *,
    base: float = 0.5,
    cap: float = 30.0,
) -> float:
    """Re-issue delay before attempt ``attempt`` (1-based) of a unit.

    Exponential in the attempt number, capped, plus up to one ``base``
    of jitter derived by hashing the unit key and attempt — fully
    deterministic, so a replayed campaign re-issues at identical
    offsets, yet distinct units never thundering-herd the same instant.
    Attempt 1 (the first issue) has no delay.
    """
    if attempt <= 1:
        return 0.0
    digest = hashlib.blake2b(
        f"backoff|{unit_key}|{attempt}".encode("utf-8"), digest_size=8
    ).digest()
    jitter = int.from_bytes(digest, "big") / float(1 << 64)  # [0, 1)
    delay = min(cap, base * (2.0 ** (attempt - 2)))
    return delay + base * jitter


@dataclass
class Lease:
    """One worker's time-bounded claim on one work unit."""

    unit_key: str
    worker: int
    attempt: int  # 1-based execution attempt this lease represents
    issued_at: float
    ttl: float
    deadline: float  # issued_at + ttl, pushed forward by renew()
    unit_deadline: float  # issued_at + unit_timeout; renewal never moves it

    def expired(self, now: float) -> bool:
        """True once the lease no longer entitles the worker to the unit.

        Either cause suffices: the worker went silent for a full TTL
        (crash, wedge, heartbeat loss), or the unit has been running
        past its wall-clock budget even with dutiful heartbeats (the
        slow-loris case).
        """
        return now >= self.deadline or now >= self.unit_deadline

    def expiry_cause(self, now: float) -> str:
        if now >= self.unit_deadline:
            return "unit-timeout"
        if now >= self.deadline:
            return "heartbeat-silence"
        return "live"


class LeaseTable:
    """The live leases of a campaign: at most one per unit, clock-driven.

    ``clock`` defaults to :func:`time.monotonic` (lease arithmetic must
    never jump with wall-clock steps); tests inject a fake clock.
    """

    def __init__(
        self,
        *,
        ttl: float,
        unit_timeout: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if ttl <= 0:
            raise ConfigurationError("lease ttl must be > 0 seconds")
        if unit_timeout <= 0:
            raise ConfigurationError("unit timeout must be > 0 seconds")
        self.ttl = ttl
        self.unit_timeout = unit_timeout
        self._clock = clock
        self._by_unit: Dict[str, Lease] = {}

    def __len__(self) -> int:
        return len(self._by_unit)

    def __contains__(self, unit_key: str) -> bool:
        return unit_key in self._by_unit

    def holder(self, unit_key: str) -> Optional[Lease]:
        return self._by_unit.get(unit_key)

    def issue(self, unit_key: str, worker: int, attempt: int) -> Lease:
        """Grant ``worker`` a fresh lease on ``unit_key``.

        Refuses (loudly — this is a coordinator bug, not a race) while a
        lease on the unit is still live; the caller must ``revoke`` or
        observe expiry first.  That refusal is the no-double-execution
        guarantee the property tests pin.
        """
        existing = self._by_unit.get(unit_key)
        now = self._clock()
        if existing is not None and not existing.expired(now):
            raise ConfigurationError(
                f"unit {unit_key[:16]} is already leased to worker "
                f"{existing.worker} (attempt {existing.attempt})"
            )
        lease = Lease(
            unit_key=unit_key,
            worker=worker,
            attempt=attempt,
            issued_at=now,
            ttl=self.ttl,
            deadline=now + self.ttl,
            unit_deadline=now + self.unit_timeout,
        )
        self._by_unit[unit_key] = lease
        return lease

    def renew(self, unit_key: str, worker: int) -> bool:
        """Heartbeat: push the silence deadline forward one TTL.

        Returns ``False`` for stale heartbeats — no lease, a different
        holder, or a lease already past either deadline.  A renewal can
        never resurrect an expired lease nor extend the unit's hard
        wall-clock deadline.
        """
        lease = self._by_unit.get(unit_key)
        now = self._clock()
        if lease is None or lease.worker != worker or lease.expired(now):
            return False
        lease.deadline = min(now + self.ttl, lease.unit_deadline)
        return True

    def release(self, unit_key: str, worker: int) -> bool:
        """Completion: drop the lease if ``worker`` still holds it live.

        A stale release (expired lease, or the unit was re-issued to
        someone else) returns ``False`` and leaves the table untouched:
        the work itself is not wasted — records already streamed into
        the idempotent store — but the *protocol* credit goes to the
        live holder.
        """
        lease = self._by_unit.get(unit_key)
        if lease is None or lease.worker != worker:
            return False
        if lease.expired(self._clock()):
            return False
        del self._by_unit[unit_key]
        return True

    def revoke(self, unit_key: str) -> Optional[Lease]:
        """Forcibly drop a lease (worker death noticed out-of-band)."""
        return self._by_unit.pop(unit_key, None)

    def expired(self) -> List[Lease]:
        """Leases past either deadline, in issue order (not yet removed)."""
        now = self._clock()
        return [
            lease
            for lease in self._by_unit.values()
            if lease.expired(now)
        ]


# Unit lifecycle states (strings, not an enum: they go straight into
# ledger events and accounting dicts).
PENDING = "pending"
LEASED = "leased"
COMPLETED = "completed"
QUARANTINED = "quarantined"
CACHED = "cached"


@dataclass
class _UnitEntry:
    key: str
    index: int  # canonical order
    state: str = PENDING
    attempts: int = 0  # executions started (= leases issued)
    reissues: int = 0  # expiry-triggered re-issues
    available_at: float = 0.0  # backoff gate for the next issue
    last_cause: str = ""  # why the last lease ended early
    history: List[str] = field(default_factory=list)


class UnitTracker:
    """The campaign's unit state machine (pure, clock-injected).

    Drives ``pending -> leased -> completed`` with expiry looping a
    unit back to ``pending`` behind a deterministic backoff gate, until
    the retry budget (``max_retries`` re-issues *after* the first
    attempt) is spent and the unit is ``quarantined``.  ``cached`` is a
    terminal state for resume hits that never execute.

    The tracker owns no processes and does no I/O — the coordinator
    asks it what to do (:meth:`next_issuable`), tells it what happened
    (:meth:`on_*`), and the hypothesis suite drives it through
    adversarial schedules to pin the invariants.
    """

    def __init__(
        self,
        unit_keys: List[str],
        *,
        max_retries: int,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if len(set(unit_keys)) != len(unit_keys):
            raise ConfigurationError("duplicate work-unit keys in campaign")
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._clock = clock
        self._units: Dict[str, _UnitEntry] = {
            key: _UnitEntry(key=key, index=index)
            for index, key in enumerate(unit_keys)
        }

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._units)

    def state(self, key: str) -> str:
        return self._units[key].state

    def attempts(self, key: str) -> int:
        return self._units[key].attempts

    def in_state(self, state: str) -> List[str]:
        """Unit keys in ``state``, in canonical order."""
        return [
            entry.key
            for entry in sorted(self._units.values(), key=lambda e: e.index)
            if entry.state == state
        ]

    @property
    def done(self) -> bool:
        """True once every unit reached a terminal state."""
        return all(
            entry.state in (COMPLETED, QUARANTINED, CACHED)
            for entry in self._units.values()
        )

    def next_issuable(self) -> Optional[str]:
        """The next pending unit whose backoff gate has opened.

        Canonical order among eligible units, so serial campaigns and
        undisturbed fleets issue in the same order.
        """
        now = self._clock()
        for entry in sorted(self._units.values(), key=lambda e: e.index):
            if entry.state == PENDING and entry.available_at <= now:
                return entry.key
        return None

    def next_available_at(self) -> Optional[float]:
        """Earliest backoff gate among pending units (None when empty)."""
        gates = [
            entry.available_at
            for entry in self._units.values()
            if entry.state == PENDING
        ]
        return min(gates) if gates else None

    # -- transitions ---------------------------------------------------------

    def _entry(self, key: str) -> _UnitEntry:
        try:
            return self._units[key]
        except KeyError:
            raise ConfigurationError(
                f"unknown work unit {key[:16]}"
            ) from None

    def on_cached(self, key: str) -> None:
        """Resume hit: the unit's artifact is already archived."""
        entry = self._entry(key)
        if entry.state != PENDING:
            raise ConfigurationError(
                f"unit {key[:16]} cannot be cached from state {entry.state}"
            )
        entry.state = CACHED
        entry.history.append(CACHED)

    def on_issue(self, key: str) -> int:
        """A lease was granted; returns the attempt number (1-based)."""
        entry = self._entry(key)
        if entry.state != PENDING:
            raise ConfigurationError(
                f"unit {key[:16]} cannot be issued from state {entry.state}"
            )
        entry.state = LEASED
        entry.attempts += 1
        entry.history.append(f"issue:{entry.attempts}")
        return entry.attempts

    def on_complete(self, key: str) -> None:
        """The live leaseholder finished the unit."""
        entry = self._entry(key)
        if entry.state != LEASED:
            raise ConfigurationError(
                f"unit {key[:16]} cannot complete from state {entry.state}"
            )
        entry.state = COMPLETED
        entry.history.append(COMPLETED)

    def on_expire(self, key: str, cause: str) -> str:
        """The lease ended without completion (expiry or worker death).

        Returns the unit's new state: ``pending`` (re-issue scheduled
        behind the backoff gate) or ``quarantined`` (budget spent).
        """
        entry = self._entry(key)
        if entry.state != LEASED:
            raise ConfigurationError(
                f"unit {key[:16]} cannot expire from state {entry.state}"
            )
        entry.last_cause = cause
        entry.history.append(f"expire:{cause}")
        if entry.attempts > self.max_retries:
            entry.state = QUARANTINED
            entry.history.append(QUARANTINED)
            return QUARANTINED
        entry.state = PENDING
        entry.available_at = self._clock() + backoff_delay(
            key,
            entry.attempts + 1,
            base=self.backoff_base,
            cap=self.backoff_cap,
        )
        entry.reissues += 1
        return PENDING

    # -- accounting ----------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """State histogram plus total re-issues (the campaign summary)."""
        counts = {
            PENDING: 0,
            LEASED: 0,
            COMPLETED: 0,
            QUARANTINED: 0,
            CACHED: 0,
        }
        reissues = 0
        for entry in self._units.values():
            counts[entry.state] += 1
            reissues += entry.reissues
        counts["reissues"] = reissues
        return counts

    def report(self, key: str) -> Dict[str, object]:
        """One unit's full lifecycle (quarantine artifacts embed this)."""
        entry = self._entry(key)
        return {
            "unit": key,
            "index": entry.index,
            "state": entry.state,
            "attempts": entry.attempts,
            "reissues": entry.reissues,
            "last_cause": entry.last_cause,
            "history": list(entry.history),
        }
