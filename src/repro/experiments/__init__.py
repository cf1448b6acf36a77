"""Experiment drivers for every table and figure (see DESIGN.md E1-E18)."""

from repro.experiments.comparison import AlgorithmComparison, compare_algorithms
from repro.experiments.figures import FIGURES, FigureConfig, figure
from repro.experiments.impossibility import (
    ImpossibilityOutcome,
    demonstrate_impossibility,
    expanded_placement,
    lemma1_window_agreement,
)
from repro.experiments.lower_bound import (
    LowerBoundRow,
    lower_bound_comparison,
    quarter_sweep,
)
from repro.experiments.report import PROFILES, ReportProfile, generate_report
from repro.experiments.runner import (
    RunResult,
    build_agents,
    build_engine,
    run_experiment,
)
from repro.experiments.serialize import (
    load_results,
    results_from_json,
    results_to_json,
    save_results,
)
from repro.experiments.statistics import (
    MetricSummary,
    TrialAggregate,
    aggregate_trials,
)
from repro.experiments.sweep import (
    SweepCell,
    SweepSpec,
    cell_seed,
    expand_cells,
    run_cell,
    run_sweep,
    rows_to_json,
    summarize_rows,
)
from repro.experiments.table1 import (
    format_rows,
    symmetry_placement,
    symmetry_sweep,
)

__all__ = [
    "MetricSummary",
    "PROFILES",
    "ReportProfile",
    "TrialAggregate",
    "aggregate_trials",
    "generate_report",
    "load_results",
    "results_from_json",
    "results_to_json",
    "save_results",
    "AlgorithmComparison",
    "compare_algorithms",
    "FIGURES",
    "FigureConfig",
    "figure",
    "ImpossibilityOutcome",
    "LowerBoundRow",
    "RunResult",
    "build_agents",
    "build_engine",
    "demonstrate_impossibility",
    "expanded_placement",
    "format_rows",
    "lemma1_window_agreement",
    "lower_bound_comparison",
    "quarter_sweep",
    "run_experiment",
    "symmetry_placement",
    "symmetry_sweep",
    "SweepCell",
    "SweepSpec",
    "cell_seed",
    "expand_cells",
    "run_cell",
    "run_sweep",
    "rows_to_json",
    "summarize_rows",
]
