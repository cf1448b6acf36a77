"""Analysis toolkit: sequences, verification, coverage, viz.

The per-action model rules (FIFO links, token monotonicity and the
structural audit) live in one place, the property oracle of
:mod:`repro.mc.properties`, which ``repro mc``, ``repro fuzz`` and the
tests' schedule replays all run.
"""

from repro.analysis.chart import bar_chart, scaling_chart
from repro.analysis.complexity import loglog_slope
from repro.analysis.coverage import (
    mean_service_gap,
    service_gaps,
    simulate_sweep,
    worst_service_gap,
)
from repro.analysis.render import render_configuration, render_gaps, render_positions
from repro.analysis.timeline import Timeline, record_timeline

from repro.analysis.sequences import (
    configuration_distance_sequence,
    distances_from_positions,
    fourfold_prefix_period,
    is_fourfold_repetition,
    is_periodic,
    minimal_period,
    minimal_rotation,
    minimal_rotation_index,
    positions_from_distances,
    prefix_alignment_shift,
    rotation_rank,
    shift,
    symmetry_degree,
)
from repro.analysis.verification import (
    VerificationReport,
    allowed_gaps,
    require_uniform_deployment,
    verify_positions,
    verify_uniform_deployment,
)

__all__ = [
    "Timeline",
    "bar_chart",
    "configuration_distance_sequence",
    "loglog_slope",
    "mean_service_gap",
    "record_timeline",
    "render_configuration",
    "scaling_chart",
    "render_gaps",
    "render_positions",
    "service_gaps",
    "simulate_sweep",
    "worst_service_gap",
    "distances_from_positions",
    "fourfold_prefix_period",
    "is_fourfold_repetition",
    "is_periodic",
    "minimal_period",
    "minimal_rotation",
    "minimal_rotation_index",
    "positions_from_distances",
    "prefix_alignment_shift",
    "rotation_rank",
    "shift",
    "symmetry_degree",
    "VerificationReport",
    "allowed_gaps",
    "require_uniform_deployment",
    "verify_positions",
    "verify_uniform_deployment",
]
