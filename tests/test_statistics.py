"""Tests for multi-trial aggregation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.statistics import MetricSummary, aggregate_trials


class TestMetricSummary:
    def test_single_value(self):
        summary = MetricSummary.of([4.0])
        assert summary.mean == 4.0
        assert summary.stdev == 0.0
        assert summary.minimum == summary.maximum == 4.0

    def test_spread(self):
        summary = MetricSummary.of([2.0, 4.0, 6.0])
        assert summary.mean == 4.0
        assert summary.minimum == 2.0 and summary.maximum == 6.0
        assert summary.stdev == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricSummary.of([])

    def test_describe(self):
        text = MetricSummary.of([1.0, 3.0]).describe(1)
        assert "[1.0..3.0]" in text


class TestAggregateTrials:
    def test_synchronous_default(self):
        aggregate = aggregate_trials("known_k_full", 24, 4, trials=3, seed=1)
        assert aggregate.all_uniform
        assert aggregate.trials == 3
        assert aggregate.ideal_time is not None
        assert aggregate.total_moves.minimum > 0
        assert len(aggregate.results) == 3

    def test_async_scheduler_factory(self):
        aggregate = aggregate_trials(
            "known_k_logspace", 20, 4, trials=2, scheduler_spec="random"
        )
        assert aggregate.all_uniform
        assert aggregate.ideal_time is None  # async runs do not report time

    def test_row_shape(self):
        aggregate = aggregate_trials("unknown", 18, 3, trials=2)
        row = aggregate.row()
        assert row["n"] == 18 and row["k"] == 3 and row["uniform"] is True
        assert "moves" in row and "memory_bits" in row

    def test_trials_validation(self):
        with pytest.raises(ConfigurationError):
            aggregate_trials("known_k_full", 12, 3, trials=0)

    def test_seeded_reproducibility(self):
        first = aggregate_trials("known_k_full", 24, 4, trials=3, seed=7)
        second = aggregate_trials("known_k_full", 24, 4, trials=3, seed=7)
        assert first.total_moves == second.total_moves
