"""Scale sanity: larger rings than the unit tests, one run each.

Not benchmarks (no timing claims) — these exist so a regression that
blows up move counts or memory superlinearly is caught by the test
suite, not first noticed in a long benchmark run.
"""

from __future__ import annotations

import random

import pytest

from repro.experiments.runner import run_experiment
from repro.registry import get_algorithm
from repro.ring.placement import random_placement


@pytest.mark.parametrize(
    "algorithm,n,k",
    [
        ("known_k_full", 1024, 16),
        ("known_n_full", 1024, 16),
        ("known_k_logspace", 1024, 16),
        ("unknown", 512, 8),
    ],
)
def test_scale_run(algorithm, n, k):
    placement = random_placement(n, k, random.Random(1234))
    result = run_experiment(algorithm, placement)
    assert result.ok, result.report.describe()
    assert result.total_moves <= get_algorithm(algorithm).bounds.max_moves(n, k)


def test_scale_many_agents():
    # k = n/2: a half-full ring still deploys.
    placement = random_placement(256, 128, random.Random(7))
    result = run_experiment("known_k_logspace", placement)
    assert result.ok


def test_scale_dense_full_ring():
    placement = random_placement(200, 200, random.Random(8))
    result = run_experiment("known_k_full", placement)
    assert result.ok
    assert sorted(result.final_positions) == list(range(200))
