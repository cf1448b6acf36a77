"""Pin the batch kernels' vectorized helpers to the scalar originals.

The kernels promise that their batched arithmetic *is* the scalar
arithmetic the object agents run — :func:`minimal_rotation_index_batch`
row-for-row equal to Booth's :func:`minimal_rotation_index`,
:func:`minimal_period_batch` to the KMP :func:`minimal_period`,
:func:`bit_cost` to the agent memory-audit bit formula, and the fused
completion arithmetic in the Algorithm 1 kernels to
:func:`repro.core.targets.target_offset`.  Fuzzed over many rows and
ring shapes, including forced-periodic rows where the rotation minimum
is ambiguous and the smallest-index tie-break is what is under test.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analysis.sequences import minimal_period, minimal_rotation_index
from repro.core.targets import target_offset
from repro.sim.batch.kernels import (
    bit_cost,
    minimal_period_batch,
    minimal_rotation_index_batch,
)


def _random_rows(rng: random.Random, count: int, k: int) -> np.ndarray:
    rows = []
    for _ in range(count):
        style = rng.randrange(3)
        if style == 0:  # generic positive distances
            row = [rng.randint(1, 9) for _ in range(k)]
        elif style == 1:  # forced periodic: repeat a divisor-length block
            divisors = [d for d in range(1, k + 1) if k % d == 0]
            block = [rng.randint(1, 5) for _ in range(rng.choice(divisors))]
            row = (block * k)[:k]
        else:  # near-constant rows: maximal tie-break pressure
            row = [rng.choice((2, 3)) for _ in range(k)]
        rows.append(row)
    return np.asarray(rows, dtype=np.int64)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 8, 16])
def test_rotation_index_matches_booth(k):
    rng = random.Random(k * 1000 + 1)
    rows = _random_rows(rng, 200, k)
    batched = minimal_rotation_index_batch(rows)
    for row, got in zip(rows.tolist(), batched.tolist()):
        assert got == minimal_rotation_index(row), row


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 8, 16])
def test_period_matches_kmp(k):
    rng = random.Random(k * 1000 + 2)
    rows = _random_rows(rng, 200, k)
    batched = minimal_period_batch(rows)
    for row, got in zip(rows.tolist(), batched.tolist()):
        assert got == minimal_period(row), row


def test_bit_cost_matches_bit_length_formula():
    values = np.concatenate(
        [
            np.arange(0, 4097),
            2 ** np.arange(13, 50),  # power-of-two boundaries
            2 ** np.arange(13, 50) - 1,
        ]
    )
    got = bit_cost(values)
    for value, bits in zip(values.tolist(), got.tolist()):
        assert bits == max(1, (value + 1).bit_length()), value


def test_completion_arithmetic_matches_target_offset():
    # The fused deployment arithmetic in the Algorithm 1 kernels:
    #   remaining = dis_base + rank * (n // k) + min(rank, (n % k) // b)
    # must equal dis_base + target_offset(rank, n, k, base_count).
    rng = random.Random(99)
    for _ in range(300):
        k = rng.choice([1, 2, 3, 4, 6, 8])
        row = _random_rows(rng, 1, k)[0]
        n = int(row.sum())
        rank = int(minimal_rotation_index_batch(row[None, :])[0])
        period = int(minimal_period_batch(row[None, :])[0])
        base_count = k // period
        fused = rank * (n // k) + min(rank, (n % k) // base_count)
        assert fused == target_offset(rank, n, k, base_count)
