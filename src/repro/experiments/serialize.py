"""JSON serialisation of experiment results.

Sweeps take minutes at large sizes; users want to keep the numbers.
:func:`results_to_json` / :func:`results_from_json` round-trip
:class:`RunResult` lists (placement, scheduler, metrics, verification)
through plain JSON so results can be archived, diffed and re-plotted
without re-running.

Since the content-addressed run store landed (:mod:`repro.store`),
this module is a thin *versioned wrapper* over the one canonical
result schema — :func:`repro.store.records.result_to_payload` /
:func:`result_from_payload`, the same converters behind
``RunResult.to_record``/``from_record`` — rather than a second
hand-maintained copy of it.  The flat-file format itself is unchanged
(format version 1 files keep loading bit for bit); files written by a
*newer* repro are rejected with an explicit error instead of being
best-effort parsed into silently wrong results.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Sequence, Union

from repro.errors import ConfigurationError
from repro.experiments.runner import RunResult
from repro.store.records import result_from_payload, result_to_payload

__all__ = [
    "results_to_json",
    "results_from_json",
    "save_results",
    "load_results",
]

_FORMAT_VERSION = 1


def results_to_json(results: Sequence[RunResult]) -> str:
    """Serialise results (with a format version) to a JSON string."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "results": [result_to_payload(result) for result in results],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def results_from_json(text: str) -> List[RunResult]:
    """Parse a string produced by :func:`results_to_json`.

    The format version is checked before any record is touched:
    versions newer than this build understands raise a
    :class:`ConfigurationError` naming both versions (upgrade to read
    the file), and a missing or non-integer version is rejected as not
    a results file at all.
    """
    payload = json.loads(text)
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if not isinstance(version, int):
        raise ConfigurationError(
            f"not a results file: format_version is {version!r} "
            f"(expected an integer)"
        )
    if version > _FORMAT_VERSION:
        raise ConfigurationError(
            f"results file uses format version {version}, but this build "
            f"reads at most {_FORMAT_VERSION}; upgrade repro to read it"
        )
    if version < 1:
        raise ConfigurationError(
            f"unsupported results format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    records = payload.get("results")
    if not isinstance(records, list):
        raise ConfigurationError(
            "not a results file: no 'results' list"
        )
    return [result_from_payload(record) for record in records]


def save_results(results: Sequence[RunResult], path: Union[str, Path]) -> None:
    """Write results to a JSON file."""
    Path(path).write_text(results_to_json(results), encoding="utf-8")


def load_results(path: Union[str, Path]) -> List[RunResult]:
    """Read results from a JSON file."""
    return results_from_json(Path(path).read_text(encoding="utf-8"))
