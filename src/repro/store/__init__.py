"""Content-addressed persistence for experiment runs.

PR 3 gave every experiment a frozen :class:`~repro.spec.ExperimentSpec`
with a stable SHA-256 content hash; this package cashes that check: the
hash keys a persistent, append-only archive of completed runs, so
repeated and overlapping sweeps cost O(new cells) compute instead of
O(cells).

* :class:`~repro.store.records.RunRecord` — the canonical archived-run
  schema (spec + content hash + result payload + env fingerprint +
  schema version),
* :class:`~repro.store.jsonl.RunStore` — the JSONL shard backend
  (atomic appends safe under the sweep pool; lookups answered by a
  rebuildable SQLite secondary index, with the historical full
  in-memory scan kept as a differential oracle),
* :class:`~repro.store.jsonl.StoreSnapshot` — frozen read-only views
  pinning a per-shard byte frontier, so the experiment service can
  answer concurrent queries while writers append,
* :func:`~repro.store.cache.cached_run` — spec-in, result-out
  memoisation used by the runner, sweeps, statistics, reports and the
  CLI,
* :class:`~repro.store.failures.FailureArchive` — content-addressed
  JSON artifacts for fuzzer-found violations, one file per triggering
  spec hash under ``<store>/failures/`` (``RunStore.failures``).
"""

from repro.store.cache import cached_run
from repro.store.campaigns import CampaignLedger, QuarantineArchive
from repro.store.failures import FailureArchive
from repro.store.index import MemoryLineIndex, SqliteLineIndex
from repro.store.jsonl import RunStore, StoreSnapshot
from repro.store.records import (
    STORE_SCHEMA_VERSION,
    RunRecord,
    env_fingerprint,
    result_from_payload,
    result_row,
    result_to_payload,
    warn_foreign_envs,
)

__all__ = [
    "STORE_SCHEMA_VERSION",
    "CampaignLedger",
    "FailureArchive",
    "MemoryLineIndex",
    "QuarantineArchive",
    "RunRecord",
    "RunStore",
    "SqliteLineIndex",
    "StoreSnapshot",
    "cached_run",
    "env_fingerprint",
    "result_from_payload",
    "result_row",
    "result_to_payload",
    "warn_foreign_envs",
]
