"""The declarative campaign description and its work-unit decomposition.

A :class:`CampaignSpec` wraps exactly one workload — a
:class:`~repro.experiments.sweep.SweepSpec` or a
:class:`~repro.fuzz.spec.FuzzSpec` — plus the fault-tolerance knobs
(worker count, lease TTL, per-unit wall-clock timeout, retry budget,
backoff shape).  Like every other spec in the codebase it is frozen,
JSON-round-trippable and content-hashed.

Two hashes matter:

* :meth:`CampaignSpec.work_hash` covers only the *work* (workload +
  shard count): it names the campaign ledger, so resuming with a
  different worker count or lease TTL continues the same campaign,
* :meth:`CampaignSpec.content_hash` covers everything, for exact
  replay of a specific configuration.

:meth:`CampaignSpec.build_units` flattens the workload into
spec-hash-keyed :class:`WorkUnit`\\ s in canonical order:

* a sweep becomes one unit per cell, keyed by the cell's
  ``ExperimentSpec`` content hash — exactly the key the
  :class:`~repro.store.jsonl.RunStore` archives under, so resume and
  byte-identity with serial sweeps hold by construction,
* a fuzz campaign becomes ``shards`` independent deterministic shard
  campaigns (the :func:`repro.fuzz.fuzzer.shard_specs` decomposition,
  shared with ``fuzz_parallel``), keyed by each shard's ``FuzzSpec``
  content hash.  The shard count is part of the work identity and
  deliberately *not* derived from the worker count: a 3-worker resume
  of a 16-worker campaign reuses every completed shard.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.experiments.sweep import SweepSpec, expand_cells
from repro.fuzz.spec import FuzzSpec

__all__ = ["CampaignSpec", "WorkUnit"]


@dataclass(frozen=True)
class WorkUnit:
    """One leased unit of campaign work (picklable, queue-crossable)."""

    key: str  # the unit's spec content hash — store key and lease key
    kind: str  # "cell" | "fuzz-shard"
    index: int  # canonical issue order
    label: str  # human-readable accounting name
    payload: Dict[str, object]  # the unit's own spec dict

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "kind": self.kind,
            "index": self.index,
            "label": self.label,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkUnit":
        return cls(
            key=data["key"],
            kind=data["kind"],
            index=int(data["index"]),
            label=data["label"],
            payload=data["payload"],
        )


@dataclass(frozen=True)
class CampaignSpec:
    """One fault-tolerant campaign, fully described and serialisable."""

    kind: str  # "sweep" | "fuzz"
    sweep: Optional[SweepSpec] = None
    fuzz: Optional[FuzzSpec] = None
    workers: int = 2
    lease_ttl: float = 10.0
    unit_timeout: float = 120.0
    max_retries: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    shards: int = 4  # fuzz only; fixed so work identity ignores workers

    def __post_init__(self) -> None:
        if self.kind not in ("sweep", "fuzz"):
            raise ConfigurationError(
                f"campaign kind must be 'sweep' or 'fuzz', got {self.kind!r}"
            )
        if self.kind == "sweep" and self.sweep is None:
            raise ConfigurationError("sweep campaign needs a SweepSpec")
        if self.kind == "fuzz" and self.fuzz is None:
            raise ConfigurationError("fuzz campaign needs a FuzzSpec")
        if self.sweep is not None and self.fuzz is not None:
            raise ConfigurationError(
                "campaign wraps exactly one workload, not both"
            )
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.lease_ttl <= 0:
            raise ConfigurationError("lease_ttl must be > 0 seconds")
        if self.unit_timeout <= 0:
            raise ConfigurationError("unit_timeout must be > 0 seconds")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise ConfigurationError(
                "backoff_base must be > 0 and backoff_cap >= backoff_base"
            )
        if self.shards < 1:
            raise ConfigurationError("shards must be >= 1")

    @property
    def heartbeat_interval(self) -> float:
        """Workers renew leases at a quarter TTL: three missed beats kill."""
        return max(0.02, self.lease_ttl / 4.0)

    def with_options(self, **changes) -> "CampaignSpec":
        return replace(self, **changes)

    # -- decomposition -------------------------------------------------------

    def build_units(self) -> List[WorkUnit]:
        """The campaign's work units in canonical order."""
        if self.kind == "sweep":
            units = []
            for index, cell in enumerate(expand_cells(self.sweep)):
                spec = cell.to_experiment_spec()
                units.append(
                    WorkUnit(
                        key=spec.content_hash(),
                        kind="cell",
                        index=index,
                        label=(
                            f"{cell.algorithm} {cell.ring_size}x"
                            f"{cell.agent_count} {cell.scheduler} "
                            f"trial {cell.trial}"
                        ),
                        payload={"spec": spec.to_dict()},
                    )
                )
            return units
        from repro.fuzz.fuzzer import shard_specs

        shards = shard_specs(self.fuzz, self.shards)
        return [
            WorkUnit(
                key=shard.content_hash(),
                kind="fuzz-shard",
                index=index,
                label=(
                    f"{shard.algorithm} fuzz shard {index + 1}/{len(shards)} "
                    f"(budget {shard.budget})"
                ),
                payload={"spec": shard.to_dict()},
            )
            for index, shard in enumerate(shards)
        ]

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        fleet: Dict[str, object] = {
            "workers": self.workers,
            "lease_ttl": self.lease_ttl,
            "unit_timeout": self.unit_timeout,
            "max_retries": self.max_retries,
            "backoff_base": self.backoff_base,
            "backoff_cap": self.backoff_cap,
            "shards": self.shards,
        }
        return {
            "kind": self.kind,
            "sweep": self.sweep.to_dict() if self.sweep else None,
            "fuzz": self.fuzz.to_dict() if self.fuzz else None,
            "fleet": fleet,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignSpec":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"campaign spec must be a dict, got {type(data).__name__}"
            )
        unknown = set(data) - {"kind", "sweep", "fuzz", "fleet"}
        if unknown:
            raise ConfigurationError(
                f"campaign spec has unknown keys {sorted(unknown)}"
            )
        # Specs from before cells always ran on the object engine may
        # carry a "backend" fleet key; it never entered work_hash, so it
        # is ignored and their ledgers resume.
        fleet = data.get("fleet", {})
        if not isinstance(fleet, dict):
            raise ConfigurationError("campaign spec 'fleet' must be a dict")
        sweep_data = data.get("sweep")
        fuzz_data = data.get("fuzz")
        return cls(
            kind=data.get("kind", ""),
            sweep=SweepSpec.from_dict(sweep_data) if sweep_data else None,
            fuzz=FuzzSpec.from_dict(fuzz_data) if fuzz_data else None,
            workers=int(fleet.get("workers", 2)),
            lease_ttl=float(fleet.get("lease_ttl", 10.0)),
            unit_timeout=float(fleet.get("unit_timeout", 120.0)),
            max_retries=int(fleet.get("max_retries", 3)),
            backoff_base=float(fleet.get("backoff_base", 0.5)),
            backoff_cap=float(fleet.get("backoff_cap", 30.0)),
            shards=int(fleet.get("shards", 4)),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"campaign spec is not valid JSON: {error}"
            ) from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "CampaignSpec":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls.from_json(handle.read())
        except OSError as error:
            raise ConfigurationError(
                f"cannot read campaign spec {path!r}: {error}"
            ) from None

    # -- identity ------------------------------------------------------------

    def _hash_payload(self, data: Dict[str, object]) -> str:
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def content_hash(self) -> str:
        """SHA-256 over the full spec (workload + fleet knobs)."""
        return self._hash_payload(self.to_dict())

    def work_hash(self) -> str:
        """SHA-256 over the *work* alone: workload + shard count.

        Names the campaign ledger; fleet knobs (workers, TTLs, retry
        budget) can change between resumes without orphaning progress.
        """
        return self._hash_payload(
            {
                "kind": self.kind,
                "sweep": self.sweep.to_dict() if self.sweep else None,
                "fuzz": self.fuzz.to_dict() if self.fuzz else None,
                "shards": self.shards,
            }
        )

    def describe(self) -> str:
        if self.kind == "sweep":
            workload = (
                f"sweep {len(self.sweep.algorithms)} algorithm(s) x "
                f"{len(self.sweep.grid)} size(s) x "
                f"{len(self.sweep.schedulers)} scheduler(s) x "
                f"{self.sweep.trials} trial(s)"
            )
        else:
            workload = (
                f"fuzz {self.fuzz.algorithm} budget {self.fuzz.budget} "
                f"in {self.shards} shard(s)"
            )
        return (
            f"{workload}; {self.workers} worker(s), lease ttl "
            f"{self.lease_ttl:g}s, unit timeout {self.unit_timeout:g}s, "
            f"max retries {self.max_retries}"
        )
