"""Content-addressed memoisation of experiment runs.

:func:`cached_run` is the one bridge every layer uses to trade compute
for storage: given an :class:`~repro.spec.ExperimentSpec` and an
optional :class:`~repro.store.jsonl.RunStore`, it returns the archived
:class:`~repro.experiments.runner.RunResult` when the spec's content
hash is already stored and otherwise executes the spec and archives the
fresh result.  Because runs are deterministic functions of their spec,
the cached and computed results are interchangeable — the differential
guarantee pinned by ``tests/test_store.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.store.jsonl import RunStore

__all__ = ["cached_run"]


def cached_run(spec, store: Optional[RunStore] = None) -> Tuple[object, bool]:
    """Run ``spec`` through the store; return ``(result, cache_hit)``.

    With ``store=None`` this is exactly ``run_experiment(spec)`` (and
    ``cache_hit`` is always False), so callers can thread an optional
    store without branching.
    """
    from repro.experiments.runner import run_experiment

    if store is not None:
        # One index lookup answers both "archived?" and "where?".
        (record,) = store.get_many([spec.content_hash()], default=None)
        if record is not None:
            return record.to_run_result(), True
        result = run_experiment(spec)
        store.put(result.to_record(spec))
        return result, False
    return run_experiment(spec), False
