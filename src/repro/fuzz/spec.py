"""The declarative, serializable fuzzing-campaign description.

One :class:`FuzzSpec` is everything the fuzzer needs to reproduce a
campaign bit for bit: the algorithm under test, the placement family,
the execution budget and the mutation/corpus parameters.  It mirrors
:class:`repro.spec.ExperimentSpec` deliberately — lossless
``to_dict``/``from_dict``/JSON round trips, a stable SHA-256
``content_hash`` and hash-derived seeds — so campaigns are
content-addressable exactly like experiments, and ``repro fuzz --spec
file.json`` reruns one identically anywhere.

A campaign over a ``random`` placement spec fuzzes ``placements``
distinct placements (their seeds derived from the campaign seed), so
the input space is *(placement, schedule)* pairs; explicit placement
kinds (``distances``, ``homes``, ...) pin a single configuration and
force ``placements == 1``.

:meth:`FuzzSpec.experiment_spec` maps a concrete failing ``(placement,
schedule)`` pair back into the one experiment vocabulary: an
:class:`~repro.spec.ExperimentSpec` whose scheduler is the
``replay:log=...`` spec string.  That spec's content hash keys the
archived :class:`~repro.fuzz.failure.FailureCase`, and ``repro run
--spec`` on it reproduces the violation with no fuzzing machinery in
the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.decode import SpecCodec, read_document, read_int
from repro.errors import ConfigurationError
from repro.registry import get_algorithm
from repro.ring.faults import LinkSpec
from repro.ring.placement import Placement
from repro.spec import ExperimentSpec, PlacementSpec

__all__ = ["FuzzSpec", "replay_spec_string"]


def replay_spec_string(schedule: Sequence[int]) -> str:
    """The ``replay:log=...`` scheduler spec string of a schedule."""
    if not schedule:
        return "replay"
    return "replay:log=" + "-".join(str(agent) for agent in schedule)


@dataclass(frozen=True)
class FuzzSpec(SpecCodec):
    """One fuzzing campaign, fully described and JSON-serialisable.

    ``budget`` counts *runs* (schedule executions, including the
    adversary-seeded corpus runs); ``max_steps`` caps the atomic
    actions of one run (``None`` derives a generous default from the
    instance size).  ``placements`` is the number of distinct initial
    configurations fuzzed when the placement spec is ``random``;
    ``corpus_size`` caps the retained coverage-novel schedule prefixes
    and ``mutations`` the number of stacked mutation operators applied
    per derived input.

    Every random choice of a campaign (per-placement seeds, per-shard
    seeds, the driver RNG) is a :meth:`derive_seed` of the spec.
    """

    algorithm: str
    placement: PlacementSpec
    budget: int = 1000
    max_steps: Optional[int] = None
    seed: int = 0
    placements: int = 4
    corpus_size: int = 64
    mutations: int = 3
    links: Optional[LinkSpec] = None

    label = "fuzz spec"

    def __post_init__(self) -> None:
        get_algorithm(self.algorithm)  # raises on unknown names
        if self.links is not None:
            if not isinstance(self.links, LinkSpec):
                raise ConfigurationError(
                    f"links must be a LinkSpec, got {type(self.links).__name__}"
                )
            if not self.links.active:
                object.__setattr__(self, "links", None)
        if not isinstance(self.placement, PlacementSpec):
            raise ConfigurationError(
                "placement must be a PlacementSpec, got "
                f"{type(self.placement).__name__}"
            )
        if self.budget < 1:
            raise ConfigurationError("fuzz budget must be >= 1 run")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigurationError("max_steps must be >= 1 when given")
        if self.placements < 1:
            raise ConfigurationError("placements must be >= 1")
        if self.placement.kind != "random" and self.placements != 1:
            raise ConfigurationError(
                f"placement kind {self.placement.kind!r} pins one "
                "configuration; placements must be 1"
            )
        if self.corpus_size < 2:
            raise ConfigurationError("corpus_size must be >= 2")
        if self.mutations < 1:
            raise ConfigurationError("mutations must be >= 1")

    # -- materialisation -----------------------------------------------------

    def build_placement(self, index: int) -> Placement:
        """The concrete placement of variant ``index`` (< ``placements``).

        Random placement specs re-seed per variant from the campaign
        seed; pinned kinds return the same placement for every index.
        """
        if not 0 <= index < self.placements:
            raise ConfigurationError(
                f"placement index {index} out of range [0, {self.placements})"
            )
        if self.placement.kind == "random":
            return PlacementSpec(
                kind="random",
                ring_size=self.placement.ring_size,
                agent_count=self.placement.agent_count,
                seed=self.derive_seed(f"placement|{index}"),
            ).build()
        return self.placement.build()

    def run_step_cap(self, placement: Placement) -> int:
        """The per-run atomic-action cap (explicit or size-derived)."""
        if self.max_steps is not None:
            return self.max_steps
        return max(512, 16 * placement.ring_size * placement.agent_count)

    def experiment_spec(
        self, placement: Placement, schedule: Sequence[int]
    ) -> ExperimentSpec:
        """The experiment a concrete ``(placement, schedule)`` pair denotes.

        The scheduler is the exact ``replay:log=...`` spec string, so
        running the returned spec replays the schedule deterministically
        (disabled entries skipped, lowest-id fallback after the log) —
        the triggering spec whose content hash keys archived failures.
        The campaign's link-fault model rides along, so replaying the
        spec reproduces the same fault draws the fuzzer saw.
        """
        return ExperimentSpec(
            algorithm=self.algorithm,
            placement=PlacementSpec.from_placement(placement),
            scheduler=replay_spec_string(schedule),
            links=self.links,
        )

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Lossless JSON-ready form (sections mirror ExperimentSpec).

        ``links`` is emitted only when active, so reliable campaigns
        keep their historical serialised form and content hash.
        """
        out: Dict[str, object] = {
            "algorithm": self.algorithm,
            "placement": self.placement.to_dict(),
            "budget": {"runs": self.budget, "max_steps": self.max_steps},
            "mutation": {
                "seed": self.seed,
                "placements": self.placements,
                "corpus_size": self.corpus_size,
                "mutations": self.mutations,
            },
        }
        if self.links is not None:
            out["links"] = self.links.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FuzzSpec":
        """Inverse of :meth:`to_dict`; missing sections take the defaults."""
        budget, mutation = read_document(
            data, cls.label,
            ("algorithm", "placement", "budget", "mutation", "links"),
            required=("algorithm", "placement"),
            sections=("budget", "mutation"),
        )
        links_data = data.get("links")
        return cls(
            algorithm=data["algorithm"],
            placement=PlacementSpec.from_dict(data["placement"]),
            budget=read_int(budget, "runs", cls, "budget", label="fuzz spec budget"),
            max_steps=read_int(budget, "max_steps", cls, label="fuzz spec budget"),
            **{
                name: read_int(mutation, name, cls, label="fuzz spec mutation")
                for name in ("seed", "placements", "corpus_size", "mutations")
            },
            links=None if links_data is None else LinkSpec.from_dict(links_data),
        )
