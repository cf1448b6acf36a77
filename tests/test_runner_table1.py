"""Tests for the experiment runner, Table 1 drivers and formatting."""

from __future__ import annotations

import pytest

from repro.analysis.complexity import (
    bound_ratio_spread,
    is_bounded_by,
    loglog_slope,
    ratios,
)
from repro.errors import ConfigurationError
from repro.experiments.lower_bound import lower_bound_comparison, quarter_sweep
from repro.experiments.runner import build_agents, run_experiment
from repro.registry import algorithm_names
from repro.experiments.table1 import (
    format_rows,
    symmetry_placement,
    symmetry_sweep,
    table1_sweep,
)
from repro.ring.placement import equidistant_placement, quarter_packed_placement


class TestRunner:
    def test_registry_contents(self):
        assert set(algorithm_names()) == {
            "known_k_full",
            "known_n_full",
            "known_k_logspace",
            "unknown",
        }

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            build_agents("nope", 3)

    def test_run_result_row(self):
        result = run_experiment("known_k_full", equidistant_placement(12, 3))
        row = result.row()
        assert row["n"] == 12 and row["k"] == 3 and row["uniform"] is True
        assert row["algorithm"] == "known_k_full"
        assert isinstance(row["total_moves"], int)

    def test_agents_are_fresh_instances(self):
        first = build_agents("unknown", 3)
        second = build_agents("unknown", 3)
        assert all(a is not b for a, b in zip(first, second))


class TestSweeps:
    def test_table1_sweep_shapes(self):
        results = table1_sweep("known_k_full", [(12, 3), (16, 4)], trials=2)
        assert len(results) == 4
        assert all(result.ok for result in results)

    def test_symmetry_sweep_monotone_moves(self):
        results = symmetry_sweep(24, 4, [1, 2, 4])
        moves = [result.total_moves for result in results]
        assert moves[0] > moves[1] > moves[2]

    def test_symmetry_placement_validation(self):
        with pytest.raises(ConfigurationError):
            symmetry_placement(24, 4, 3)

    def test_quarter_sweep_rows(self):
        rows = quarter_sweep([(24, 6)], algorithms=("known_k_full",))
        assert rows[0].quarter_floor == (6 // 4) * (24 // 4)
        assert rows[0].ratio("known_k_full") >= 1.0

    def test_lower_bound_comparison_contains_all_algorithms(self):
        row = lower_bound_comparison(
            quarter_packed_placement(24, 6),
            algorithms=("known_k_full", "unknown"),
        )
        assert set(row.algorithm_moves) == {"known_k_full", "unknown"}
        assert row.optimal_moves > 0


class TestFormatting:
    def test_format_rows_alignment(self):
        text = format_rows(
            [{"a": 1, "b": "xx"}, {"a": 222, "b": "y"}], columns=["a", "b"]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_rows_empty(self):
        assert format_rows([]) == "(no rows)"

    def test_format_rows_infers_columns(self):
        text = format_rows([{"x": 5}])
        assert "x" in text


class TestComplexityHelpers:
    def test_loglog_slope_exact_power(self):
        xs = [2, 4, 8, 16]
        ys = [x**2 for x in xs]
        assert abs(loglog_slope(xs, ys) - 2.0) < 1e-9

    def test_loglog_slope_linear(self):
        xs = [3, 9, 27]
        ys = [5 * x for x in xs]
        assert abs(loglog_slope(xs, ys) - 1.0) < 1e-9

    def test_loglog_slope_needs_two_points(self):
        with pytest.raises(ConfigurationError):
            loglog_slope([1], [1])

    def test_loglog_slope_identical_x_rejected(self):
        with pytest.raises(ConfigurationError):
            loglog_slope([2, 2], [1, 4])

    def test_ratios_and_spread(self):
        measurements = [(10, 20), (20, 50)]
        values = ratios(measurements, lambda x: x)
        assert values == [2.0, 2.5]
        assert bound_ratio_spread(measurements, lambda x: x) == (2.0, 2.5)

    def test_ratios_rejects_nonpositive_bound(self):
        with pytest.raises(ConfigurationError):
            ratios([(0, 1)], lambda x: x)

    def test_is_bounded_by(self):
        measurements = [(4, 12), (8, 20)]
        assert is_bounded_by(measurements, lambda x: x, constant=3)
        assert not is_bounded_by(measurements, lambda x: x, constant=2)
