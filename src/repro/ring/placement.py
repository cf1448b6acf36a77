"""Initial-placement generators (paper Figures 1, 3, 5, 8, 9, 11).

An initial configuration of the model is fully described by the ring size
``n`` and the distinct home nodes of the ``k`` agents.  This module
provides the placement families used throughout the paper:

* :func:`random_placement` — uniformly random distinct homes (the generic
  workload for Table 1 sweeps),
* :func:`equidistant_placement` — an already-uniform configuration
  (symmetry degree ``l = k``),
* :func:`quarter_packed_placement` — all agents packed into one quarter
  arc, the Theorem 1 / Figure 3 lower-bound configuration,
* :func:`periodic_placement` — ``l`` repetitions of an aperiodic block,
  i.e. a configuration with a chosen symmetry degree (Figures 1b and 11),
* :func:`placement_from_distances` — an explicit distance sequence
  (Figures 5, 8 and 9 use exact sequences from the paper).

All generators return a :class:`Placement`, a small immutable description
consumed by :class:`repro.experiments.runner` and the engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.analysis.sequences import (
    distances_from_positions,
    is_periodic,
    minimal_period,
    positions_from_distances,
    symmetry_degree,
)
from repro.errors import ConfigurationError

__all__ = [
    "Placement",
    "normalised_homes",
    "random_placement",
    "equidistant_placement",
    "arc_packed_placement",
    "quarter_packed_placement",
    "periodic_placement",
    "placement_from_distances",
    "random_aperiodic_block",
]


@dataclass(frozen=True)
class Placement:
    """An initial configuration: ring size and distinct agent home nodes.

    ``homes`` are listed in ring order starting from the smallest index,
    so ``homes[i]`` is the home of the ``i``-th agent in the paper's
    ordering convention (``a_i`` is the ``i``-th forward agent of
    ``a_0``).
    """

    ring_size: int
    homes: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "homes", normalised_homes(self.ring_size, self.homes)
        )

    @property
    def agent_count(self) -> int:
        """Number of agents ``k``."""
        return len(self.homes)

    @property
    def distances(self) -> Tuple[int, ...]:
        """The distance sequence of the configuration, from ``homes[0]``."""
        return distances_from_positions(self.homes, self.ring_size)

    @property
    def symmetry_degree(self) -> int:
        """The paper's ``l``: repetitions of the aperiodic fundamental block."""
        return symmetry_degree(self.distances)

    def describe(self) -> str:
        """One-line human-readable summary used by examples and benches."""
        return (
            f"n={self.ring_size} k={self.agent_count} l={self.symmetry_degree} "
            f"D={self.distances}"
        )


def normalised_homes(ring_size: int, homes: Sequence[int]) -> Tuple[int, ...]:
    """``homes`` reduced modulo ``ring_size`` and sorted into ring order.

    Raises :class:`ConfigurationError` unless the ring size is positive
    and the homes are one to ``ring_size`` distinct nodes: the checks
    every :class:`Placement` (and every archived result row) makes.
    """
    if ring_size <= 0:
        raise ConfigurationError(f"ring size must be positive, got {ring_size}")
    if not homes:
        raise ConfigurationError("a placement needs at least one agent")
    if len(homes) > ring_size:
        raise ConfigurationError(
            f"{len(homes)} agents do not fit on {ring_size} nodes"
        )
    normalised = tuple(sorted(home % ring_size for home in homes))
    if len(set(normalised)) != len(normalised):
        raise ConfigurationError(f"home nodes are not distinct: {homes}")
    return normalised


def random_placement(ring_size: int, agent_count: int, rng: random.Random) -> Placement:
    """Return ``agent_count`` uniformly random distinct homes on the ring."""
    if agent_count > ring_size:
        raise ConfigurationError(
            f"{agent_count} agents do not fit on {ring_size} nodes"
        )
    homes = tuple(rng.sample(range(ring_size), agent_count))
    return Placement(ring_size=ring_size, homes=homes)


def equidistant_placement(ring_size: int, agent_count: int) -> Placement:
    """Return an already-uniform configuration (gaps differ by at most one).

    The homes are the canonical uniform targets ``floor(i * n / k)``, so
    the resulting symmetry degree is ``k`` when ``k`` divides ``n``.
    """
    homes = tuple(index * ring_size // agent_count for index in range(agent_count))
    return Placement(ring_size=ring_size, homes=homes)


def quarter_packed_placement(ring_size: int, agent_count: int) -> Placement:
    """Return the Theorem 1 / Figure 3 configuration: agents in one quarter.

    All agents occupy consecutive nodes inside the arc ``[0, n/4)``; a
    quarter of them must travel at least ``n/4`` hops to reach the
    opposite arc, giving the Omega(kn) total-move floor.
    """
    return arc_packed_placement(ring_size, agent_count, arc_fraction=0.25)


def arc_packed_placement(
    ring_size: int, agent_count: int, arc_fraction: float
) -> Placement:
    """Agents packed into one arc of ``arc_fraction * n`` consecutive nodes.

    The generalisation Theorem 1's proof sketches: for any constant
    ``p < 1`` with ``k <= p*n``, packing the agents into a ``p``-arc
    forces Omega(kn) total moves.  ``arc_fraction = 0.25`` recovers the
    Figure 3 quarter configuration.
    """
    if not 0 < arc_fraction < 1:
        raise ConfigurationError(
            f"arc fraction must be in (0, 1), got {arc_fraction}"
        )
    arc = int(ring_size * arc_fraction)
    if agent_count > arc:
        raise ConfigurationError(
            f"{agent_count} agents do not fit in a {arc_fraction:.2f}-arc of "
            f"{ring_size} nodes (need k <= {arc})"
        )
    # Spread the agents evenly across the arc (packing them all at the
    # arc's start would make every fraction equivalent): the remaining
    # (1 - p) fraction of the ring stays empty, which is what forces
    # the Omega(kn) relocation cost.
    homes = tuple(index * arc // agent_count for index in range(agent_count))
    return Placement(ring_size=ring_size, homes=homes)


def periodic_placement(
    block_distances: Sequence[int], repetitions: int
) -> Placement:
    """Return a configuration whose distance sequence is ``block ^ repetitions``.

    ``block_distances`` must be aperiodic so the resulting symmetry degree
    is exactly ``repetitions`` (Figure 1b: block ``(1, 2, 3)`` with
    ``repetitions = 2``; Figure 11: a (6, 2)-node ring).
    """
    block = tuple(block_distances)
    if repetitions <= 0:
        raise ConfigurationError(f"repetitions must be positive, got {repetitions}")
    if minimal_period(block) != len(block):
        raise ConfigurationError(
            f"block {block} is itself periodic; symmetry degree would exceed "
            f"{repetitions}"
        )
    distances = block * repetitions
    homes = positions_from_distances(distances)
    return Placement(ring_size=sum(distances), homes=tuple(homes))


def placement_from_distances(
    distances: Sequence[int], start: int = 0, ring_size: Optional[int] = None
) -> Placement:
    """Return the configuration realising an explicit distance sequence."""
    homes = positions_from_distances(distances, start=start, ring_size=ring_size)
    return Placement(ring_size=ring_size or sum(distances), homes=tuple(homes))


def random_aperiodic_block(
    block_length: int, max_gap: int, rng: random.Random
) -> Tuple[int, ...]:
    """Return a random aperiodic distance block for :func:`periodic_placement`.

    Gaps are drawn from ``[1, max_gap]`` and re-drawn until the block is
    aperiodic; a block of length >= 2 with at least two distinct values is
    aperiodic with overwhelming probability, so this terminates quickly.
    """
    if block_length <= 0:
        raise ConfigurationError(f"block length must be positive, got {block_length}")
    if max_gap < 1:
        raise ConfigurationError(f"max gap must be at least 1, got {max_gap}")
    if block_length == 1:
        return (rng.randint(1, max_gap),)
    if max_gap == 1:
        raise ConfigurationError(
            "cannot build an aperiodic block of length >= 2 with max gap 1"
        )
    while True:
        block = tuple(rng.randint(1, max_gap) for _ in range(block_length))
        if not is_periodic(block):
            return block
