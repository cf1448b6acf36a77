"""Campaign persistence beside the run archive: quarantine + ledger.

Two small durable structures keep a fault-tolerant campaign honest
across crashes of the *coordinator itself*:

* :class:`QuarantineArchive` — ``<store>/quarantine/<unit-hash>.json``,
  one atomic JSON artifact per work unit that exhausted its retry
  budget (the ``poison`` units).  Same layout and atomicity discipline
  as the fuzzer's :class:`~repro.store.failures.FailureArchive` —
  which it subclasses — because a quarantined unit *is* a failure
  artifact: rare, written once, uploaded by CI, read by humans.
* :class:`CampaignLedger` — ``<store>/campaign/<work-hash>.jsonl``, an
  append-only event journal (``issue`` / ``heartbeat-expire`` /
  ``complete`` / ``quarantine`` / ...) written with the same
  single-``O_APPEND``-write, torn-tail-tolerant discipline as the run
  shards.  Resume reads the ledger to skip completed units (the only
  completion record fuzz shards have — sweep cells are *also* covered
  by the run store's content hashes) and post-mortems replay a
  campaign's whole lease history from it.

Ledger events never carry results — results live in the run store and
the failure/quarantine archives; the ledger is pure protocol history.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Iterator, List, Set, Union

from repro.decode import canonical_json
from repro.errors import ConfigurationError
from repro.store.failures import FailureArchive

__all__ = ["CampaignLedger", "QuarantineArchive"]


class QuarantineArchive(FailureArchive):
    """Content-addressed artifacts for units that exhausted their retries.

    The payload is the coordinator's full per-unit report (attempts,
    re-issues, expiry causes, the unit's own spec dict) under the
    unit's spec content hash, so ``repro run --spec`` /
    ``repro fuzz --spec`` can re-drive a quarantined unit by hand after
    the underlying wedge is fixed.
    """

    def describe(self) -> str:
        return f"QuarantineArchive({self.root}): {len(self)} unit(s)"


class CampaignLedger:
    """Append-only JSONL journal of one campaign's lease protocol.

    One ledger file per campaign *work hash*; every coordinator run
    over the same workload (first attempt, resumes, chaos re-runs)
    appends to the same journal.  Events are plain dicts with at least
    ``event`` and a wall-clock ``ts`` (informational only — protocol
    decisions always use the coordinator's monotonic clock).
    """

    def __init__(
        self, root: Union[str, Path], work_hash: str, *, create: bool = True
    ) -> None:
        if not work_hash or any(c in work_hash for c in "/\\."):
            raise ConfigurationError(f"bad campaign work hash {work_hash!r}")
        self.root = Path(root)
        self.work_hash = work_hash
        if not self.root.exists():
            if not create:
                raise ConfigurationError(
                    f"campaign ledger directory {self.root} does not exist"
                )
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise ConfigurationError(
                f"campaign ledger path {self.root} is not a directory"
            )
        self.path = self.root / f"{work_hash}.jsonl"

    # -- writing -------------------------------------------------------------

    def append(self, event: str, **fields: object) -> Dict[str, object]:
        """Durably append one event; returns the record written.

        A single ``O_APPEND`` write per event (the run-shard rule): a
        coordinator killed mid-append leaves at most one torn tail,
        which :meth:`events` detects and skips.
        """
        if not event:
            raise ConfigurationError("ledger event name must be non-empty")
        record: Dict[str, object] = {"event": event, "ts": time.time()}
        record.update(fields)
        encoded = canonical_json(record).encode("utf-8") + b"\n"
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, encoded)
        finally:
            os.close(fd)
        return record

    # -- reading -------------------------------------------------------------

    def events(self) -> Iterator[Dict[str, object]]:
        """Every committed event in append order (torn tails skipped)."""
        if not self.path.exists():
            return
        with self.path.open("rb") as handle:
            data = handle.read()
        for raw in data.split(b"\n"):
            if not raw:
                continue
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError:
                # Torn tail (coordinator killed mid-append) or a line a
                # later writer newline-terminated; committed events are
                # unaffected, so skip rather than wedge resumes.
                continue
            if isinstance(payload, dict) and "event" in payload:
                yield payload

    def completed_units(self) -> Set[str]:
        """Unit keys with a ``complete`` event (the resume skip-set)."""
        return {
            str(record["unit"])
            for record in self.events()
            if record["event"] == "complete" and "unit" in record
        }

    def quarantined_units(self) -> Set[str]:
        """Unit keys quarantined and not completed by a later resume."""
        quarantined: Set[str] = set()
        for record in self.events():
            unit = record.get("unit")
            if unit is None:
                continue
            if record["event"] == "quarantine":
                quarantined.add(str(unit))
            elif record["event"] == "complete":
                quarantined.discard(str(unit))
        return quarantined

    def history(self, unit_key: str) -> List[Dict[str, object]]:
        """Every event touching one unit, in append order."""
        return [
            record
            for record in self.events()
            if record.get("unit") == unit_key
        ]

    def describe(self) -> str:
        count = sum(1 for _ in self.events())
        return (
            f"CampaignLedger({self.path.name}): {count} event(s), "
            f"{len(self.completed_units())} unit(s) complete"
        )
