"""The declarative, serializable experiment description.

One :class:`ExperimentSpec` is everything a runner needs to reproduce an
experiment: the algorithm name, a declarative :class:`PlacementSpec`, a
scheduler spec string (see :mod:`repro.registry`), the engine options
and the run limits.  The same frozen value drives every entry point —
``run_experiment(spec)``, ``build_engine(spec)``, sweep cells
(:meth:`repro.experiments.sweep.SweepCell.to_experiment_spec`), the
model checker and the ``repro run --spec file.json`` / ``repro spec``
CLI commands — so a JSON file, a sweep cell and a command line all
denote experiments in exactly one vocabulary.

Contracts:

* **Lossless round trip** — ``ExperimentSpec.from_dict(spec.to_dict())
  == spec`` and likewise through :meth:`ExperimentSpec.to_json`; the
  test suite pins this with a Hypothesis strategy over specs.
* **Byte-identical replay** — building and running an engine from a
  spec produces the same ``activation_log``, ``Metrics`` and
  ``RunResult.row()`` as the equivalent keyword-argument calls.
* **Stable content hash** — :meth:`ExperimentSpec.content_hash` is the
  SHA-256 of the canonical JSON form: identical across processes,
  interpreter runs and platforms, usable for caching and for deriving
  per-cell seeds (:meth:`ExperimentSpec.derive_seed`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple, Union

from repro.decode import (
    SpecCodec, field_default, read_bool, read_document, read_int, strict_int,
)
from repro.errors import ConfigurationError
from repro.registry import (
    SchedulerSpec,
    format_scheduler_spec,
    get_algorithm,
    parse_scheduler_spec,
)
from repro.ring.faults import LinkSpec
from repro.ring.placement import (
    Placement,
    equidistant_placement,
    placement_from_distances,
    quarter_packed_placement,
    random_placement,
)

__all__ = [
    "ExperimentSpec",
    "PlacementSpec",
    "run_spec",
]

#: Placement kinds and the fields each one requires.
_PLACEMENT_KINDS: Dict[str, Tuple[str, ...]] = {
    "random": ("ring_size", "agent_count", "seed"),
    "equidistant": ("ring_size", "agent_count"),
    "quarter": ("ring_size", "agent_count"),
    "distances": ("distances",),
    "homes": ("ring_size", "homes"),
}


@dataclass(frozen=True)
class PlacementSpec:
    """A declarative initial configuration (JSON-safe, buildable).

    ``kind`` selects the placement family; the other fields are required
    or forbidden per kind:

    * ``random`` — ``ring_size``, ``agent_count``, ``seed`` (uniformly
      random distinct homes via :func:`repro.ring.placement.random_placement`),
    * ``equidistant`` / ``quarter`` — ``ring_size``, ``agent_count``,
    * ``distances`` — an explicit distance sequence,
    * ``homes`` — ``ring_size`` plus explicit home nodes (the lossless
      image of any concrete :class:`~repro.ring.placement.Placement`).
    """

    kind: str = "random"
    ring_size: Optional[int] = None
    agent_count: Optional[int] = None
    seed: Optional[int] = None
    distances: Optional[Tuple[int, ...]] = None
    homes: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in _PLACEMENT_KINDS:
            raise ConfigurationError(
                f"unknown placement kind {self.kind!r}; "
                f"choose from {sorted(_PLACEMENT_KINDS)}"
            )
        for name in ("ring_size", "agent_count", "seed"):
            value = getattr(self, name)
            if value is not None and type(value) is not int:  # label on failure only
                strict_int(value, f"placement spec {name!r}")
        for name in ("distances", "homes"):
            value = getattr(self, name)
            if value is not None:
                if not isinstance(value, (list, tuple)):
                    raise ConfigurationError(
                        f"placement spec {name!r} must be a list, got {value!r}"
                    )
                label = f"placement spec {name!r} entry"
                object.__setattr__(
                    self, name, tuple(strict_int(v, label) for v in value)
                )
        required = _PLACEMENT_KINDS[self.kind]
        for spec_field in fields(self):
            if spec_field.name == "kind":
                continue
            value = getattr(self, spec_field.name)
            if spec_field.name in required:
                if value is None:
                    raise ConfigurationError(
                        f"placement kind {self.kind!r} requires "
                        f"{spec_field.name!r}"
                    )
            elif value is not None:
                raise ConfigurationError(
                    f"placement kind {self.kind!r} does not take "
                    f"{spec_field.name!r}"
                )

    @classmethod
    def from_placement(cls, placement: Placement) -> "PlacementSpec":
        """The lossless ``homes`` image of a concrete placement."""
        return cls(
            kind="homes",
            ring_size=placement.ring_size,
            homes=placement.homes,
        )

    def build(self) -> Placement:
        """Materialise the concrete :class:`Placement` this spec denotes."""
        if self.kind == "random":
            return random_placement(
                self.ring_size, self.agent_count, random.Random(self.seed)
            )
        if self.kind == "equidistant":
            return equidistant_placement(self.ring_size, self.agent_count)
        if self.kind == "quarter":
            return quarter_packed_placement(self.ring_size, self.agent_count)
        if self.kind == "distances":
            return placement_from_distances(self.distances)
        return Placement(ring_size=self.ring_size, homes=self.homes)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict carrying ``kind`` plus its required fields only."""
        out: Dict[str, object] = {"kind": self.kind}
        for name in _PLACEMENT_KINDS[self.kind]:
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PlacementSpec":
        """Inverse of :meth:`to_dict` (unknown keys are rejected)."""
        read_document(data, "placement spec", cls.__dataclass_fields__)
        return cls(**data)


def _coerce_scheduler(value: Union[str, SchedulerSpec]) -> str:
    """Normalise any accepted scheduler form to the canonical spec string."""
    return format_scheduler_spec(parse_scheduler_spec(value))


@dataclass(frozen=True)
class ExperimentSpec(SpecCodec):
    """One experiment, fully described and JSON-serialisable.

    ``scheduler`` is stored as the *canonical* scheduler spec string
    (any accepted spelling — aliases, whitespace, a parsed
    :class:`~repro.registry.SchedulerSpec` — is normalised on
    construction), so equal experiments compare equal and hash equal.
    ``scheduler_seed`` is the context seed filling any seed parameter
    the spec string leaves unpinned.  Engine options and limits mirror
    :func:`repro.experiments.runner.build_engine`.

    ``links`` is the optional link-fault envelope
    (:class:`~repro.ring.faults.LinkSpec`).  ``None`` — and any
    *inactive* spec, which is normalised to ``None`` on construction —
    means reliable links: the serialised form then omits the field
    entirely, so the content hash of every pre-fault experiment is
    untouched.
    """

    algorithm: str
    placement: PlacementSpec
    scheduler: str = "sync"
    scheduler_seed: int = 0
    max_steps: Optional[int] = None
    memory_audit_interval: int = 16
    collect_metrics: bool = True
    validate_enabledness: bool = False
    links: Optional[LinkSpec] = None

    label = "experiment spec"

    def __post_init__(self) -> None:
        get_algorithm(self.algorithm)  # raises on unknown names
        if not isinstance(self.placement, PlacementSpec):
            raise ConfigurationError(
                "placement must be a PlacementSpec, got "
                f"{type(self.placement).__name__} (use "
                "PlacementSpec.from_placement for concrete placements)"
            )
        object.__setattr__(self, "scheduler", _coerce_scheduler(self.scheduler))
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigurationError("max_steps must be >= 1 when given")
        if self.links is not None:
            if not isinstance(self.links, LinkSpec):
                raise ConfigurationError(
                    f"links must be a LinkSpec, got {type(self.links).__name__}"
                )
            if not self.links.active:
                # Inactive spec == reliable links: normalise so equal
                # experiments compare, hash and serialise identically.
                object.__setattr__(self, "links", None)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def for_placement(
        cls, algorithm: str, placement: Placement, **kwargs
    ) -> "ExperimentSpec":
        """Spec for a concrete placement (stored losslessly as homes)."""
        return cls(
            algorithm=algorithm,
            placement=PlacementSpec.from_placement(placement),
            **kwargs,
        )

    # -- materialisation -----------------------------------------------------

    def build_placement(self) -> Placement:
        """The concrete placement this spec denotes."""
        return self.placement.build()

    def build_scheduler(self):
        """A fresh scheduler instance (unpinned seeds <- ``scheduler_seed``)."""
        return parse_scheduler_spec(self.scheduler).build(seed=self.scheduler_seed)

    def build_engine(self):
        """A fresh engine wired exactly as this spec describes."""
        from repro.experiments.runner import build_engine

        return build_engine(self)

    def run(self):
        """Run to quiescence and verify (see :func:`run_spec`)."""
        return run_spec(self)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Lossless JSON-ready form: algorithm, placement, scheduler,
        engine options and limits as nested plain dicts."""
        out: Dict[str, object] = {
            "algorithm": self.algorithm,
            "placement": self.placement.to_dict(),
            "scheduler": {"spec": self.scheduler, "seed": self.scheduler_seed},
            "engine": {
                "memory_audit_interval": self.memory_audit_interval,
                "collect_metrics": self.collect_metrics,
                "validate_enabledness": self.validate_enabledness,
                # Constant: the engine no longer has this option, and
                # the key stays so every content hash stays stable.
                "record_views": False,
            },
            "limits": {"max_steps": self.max_steps},
        }
        if self.links is not None:
            # Emitted only when active: absent == reliable links, so
            # every archived content hash predating faults is unchanged.
            out["links"] = self.links.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`; missing sections take the defaults.

        ``engine.record_views``, a removed option, is accepted with
        either value and ignored.
        """
        scheduler, engine, limits = read_document(
            data, cls.label,
            ("algorithm", "placement", "scheduler", "engine", "limits", "links"),
            required=("algorithm", "placement"),
            sections=("scheduler", "engine", "limits"),
        )
        links_data = data.get("links")
        return cls(
            algorithm=data["algorithm"],
            placement=PlacementSpec.from_dict(data["placement"]),
            scheduler=scheduler.get("spec", field_default(cls, "scheduler")),
            scheduler_seed=read_int(
                scheduler, "seed", cls, "scheduler_seed",
                label="experiment spec scheduler",
            ),
            max_steps=read_int(
                limits, "max_steps", cls, label="experiment spec limits"
            ),
            memory_audit_interval=read_int(
                engine, "memory_audit_interval", cls, label="experiment spec engine"
            ),
            **{
                name: read_bool(engine, name, cls, label="experiment spec engine")
                for name in ("collect_metrics", "validate_enabledness")
            },
            links=None if links_data is None else LinkSpec.from_dict(links_data),
        )


def run_spec(spec: ExperimentSpec):
    """Run a declarative spec to quiescence and verify it.

    Thin delegation to :func:`repro.experiments.runner.run_experiment`,
    which accepts specs natively; kept as a named entry point so callers
    reading JSON never need the kwargs API.
    """
    from repro.experiments.runner import run_experiment

    return run_experiment(spec)
