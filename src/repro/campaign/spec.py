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

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.decode import (
    SpecCodec, canonical_hash, read_document, read_float, read_int,
)
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
class CampaignSpec(SpecCodec):
    """One fault-tolerant campaign, fully described and serialisable.

    :meth:`content_hash` covers the full spec (workload + fleet knobs).
    """

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

    label = "campaign spec"

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
        # Specs from before cells always ran on the object engine may
        # carry a "backend" fleet key; it never entered work_hash, so it
        # is ignored and their ledgers resume.
        (fleet,) = read_document(
            data, cls.label, ("kind", "sweep", "fuzz", "fleet"), sections=("fleet",)
        )
        sweep_data = data.get("sweep")
        fuzz_data = data.get("fuzz")
        return cls(
            kind=data.get("kind", ""),
            sweep=SweepSpec.from_dict(sweep_data) if sweep_data else None,
            fuzz=FuzzSpec.from_dict(fuzz_data) if fuzz_data else None,
            **{
                name: read_int(fleet, name, cls, label="campaign spec fleet")
                for name in ("workers", "max_retries", "shards")
            },
            **{
                name: read_float(fleet, name, cls, label="campaign spec fleet")
                for name in (
                    "lease_ttl", "unit_timeout", "backoff_base", "backoff_cap"
                )
            },
        )

    # -- identity ------------------------------------------------------------

    def work_hash(self) -> str:
        """SHA-256 over the *work* alone: workload + shard count.

        Names the campaign ledger; fleet knobs (workers, TTLs, retry
        budget) can change between resumes without orphaning progress.
        """
        return canonical_hash(
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
