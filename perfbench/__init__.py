"""End-to-end and per-layer benchmark of the verification ladder.

Run ``python3 perfbench/run.py --workload sweep --seed 1 --seconds 30
--trace 0`` from the repository root; ``CONTRACT.md`` describes the
workloads and every metric.
"""
