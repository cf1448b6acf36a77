"""Benchmark-suite plumbing: experiment tables and ``BENCH_engine.json``.

Every benchmark registers the rows it measured via :func:`report`;
``pytest_terminal_summary`` prints them after the pytest-benchmark
tables (the terminal summary is never captured, so the paper-level
tables always reach the console and ``bench_output.txt``).

Machine-readable cases go through :func:`record_case`; at the end of
the session they are merged into ``BENCH_engine.json`` at the repo
root, so later changes can track each case's trajectory.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

# pytest imports this file as ``conftest``, while the benchmark modules
# import it as ``benchmarks.conftest``.  Register this module under both
# names so what they record is what the hooks below read.
sys.modules.setdefault("benchmarks.conftest", sys.modules[__name__])

_REPORTS: List[Tuple[str, str]] = []

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
_CASES: Dict[str, Dict[str, object]] = {}


def record_case(name: str, case: Dict[str, object]) -> Dict[str, object]:
    """Register one measured case for ``BENCH_engine.json``.

    The stored case gains ``host_cpus``, since every speed depends on
    the host it was measured on.  Returns the stored dict, which the
    caller may still extend.
    """
    stored = _CASES[name] = {**case, "host_cpus": os.cpu_count()}
    return stored


def pytest_sessionfinish(session, exitstatus):
    """Merge the recorded cases into ``BENCH_engine.json``.

    Read-modify-write, so a partial run (``-k large_random``) refreshes
    only the cases it measured instead of erasing the tracked history.
    """
    if not _CASES:
        return
    cases: Dict[str, Dict[str, object]] = {}
    if BENCH_JSON.exists():
        try:
            cases = json.loads(BENCH_JSON.read_text()).get("cases", {})
        except (json.JSONDecodeError, AttributeError):
            cases = {}
    cases.update(_CASES)
    payload = {"schema": 1, "unit": "atomic actions", "cases": cases}
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def report(title: str, rows: Iterable[Dict[str, object]], notes: str = "") -> None:
    """Register a formatted experiment table for the terminal summary."""
    from repro.experiments.table1 import format_rows

    body = format_rows(list(rows))
    text = body if not notes else f"{body}\n  note: {notes}"
    _REPORTS.append((title, text))


def report_lines(title: str, lines: Sequence[str]) -> None:
    """Register free-form lines (for non-tabular experiment output)."""
    _REPORTS.append((title, "\n".join(lines)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    write = terminalreporter.write_line
    write("")
    write("=" * 78)
    write("PAPER EXPERIMENT TABLES (see EXPERIMENTS.md for the index)")
    write("=" * 78)
    for title, text in _REPORTS:
        write("")
        write(f"--- {title} ---")
        for line in text.splitlines():
            write(line)
    write("")
