"""The Result 4 symmetry sweep (E16) and report formatting.

The paper's Table 1 (memory, time and moves across (n, k) grids) is
measured by :mod:`repro.experiments.sweep`.  :func:`symmetry_sweep`
fixes (n, k) and sweeps the symmetry degree ``l`` for the relaxed
algorithm (Result 4's adaptivity).  :func:`format_rows` renders aligned
text tables for benchmark output and EXPERIMENTS.md.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.runner import RunResult
from repro.ring.placement import Placement, periodic_placement
from repro.spec import ExperimentSpec
from repro.store import RunStore, cached_run

__all__ = [
    "symmetry_sweep",
    "symmetry_placement",
    "format_rows",
]


def symmetry_placement(
    ring_size: int, agent_count: int, degree: int, seed: int = 0
) -> Placement:
    """A placement with exact symmetry degree ``degree`` on ~ring_size nodes.

    The fundamental block has ``agent_count / degree`` agents over
    ``ring_size / degree`` nodes; gaps are drawn randomly and the last
    gap absorbs the remainder so the block sums exactly.
    """
    if agent_count % degree != 0 or ring_size % degree != 0:
        raise ConfigurationError(
            f"degree {degree} must divide both n={ring_size} and k={agent_count}"
        )
    block_agents = agent_count // degree
    block_nodes = ring_size // degree
    if block_agents > block_nodes:
        raise ConfigurationError("more agents than nodes in the fundamental block")
    rng = random.Random(seed)
    while True:
        positions = sorted(rng.sample(range(block_nodes), block_agents))
        gaps = [
            (positions[(i + 1) % block_agents] - positions[i]) % block_nodes
            or block_nodes
            for i in range(block_agents)
        ]
        candidate = tuple(gaps)
        from repro.analysis.sequences import minimal_period

        if block_agents == 1 or minimal_period(candidate) == block_agents:
            return periodic_placement(candidate, degree)


def symmetry_sweep(
    ring_size: int,
    agent_count: int,
    degrees: Sequence[int],
    algorithm: str = "unknown",
    seed: int = 0,
    store: Optional[RunStore] = None,
) -> List[RunResult]:
    """Fix (n, k); measure the relaxed algorithm across symmetry degrees.

    ``store`` memoises runs by spec content hash: archived runs are
    served from it and fresh ones archived.
    """
    results = []
    for degree in degrees:
        placement = symmetry_placement(ring_size, agent_count, degree, seed=seed)
        spec = ExperimentSpec.for_placement(algorithm, placement)
        results.append(cached_run(spec, store)[0])
    return results


def format_rows(
    rows: Iterable[Dict[str, object]], columns: Optional[Sequence[str]] = None
) -> str:
    """Render dictionaries as an aligned text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    separator = "  ".join("-" * widths[column] for column in columns)
    lines = [header, separator]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)
