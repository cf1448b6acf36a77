"""The canonical archived-run schema: :class:`RunRecord`.

One record is everything the store keeps about one completed
experiment:

* ``spec`` — the :class:`repro.spec.ExperimentSpec` dict that produced
  the run (``None`` for results archived without a spec, e.g. the
  legacy flat-file path in :mod:`repro.experiments.serialize`),
* ``content_hash`` — the spec's SHA-256 content hash, the store key;
  specless records derive a hash from the result payload instead,
* ``result`` — the canonical :class:`~repro.experiments.runner.RunResult`
  payload (:func:`result_to_payload` / :func:`result_from_payload` are
  the *only* converters in the codebase; ``serialize.results_to_json``
  and ``RunResult.to_record`` both call them),
* ``env`` — an environment fingerprint (interpreter, platform, package
  version) recording where the numbers came from,
* ``schema_version`` — bumped on any incompatible payload change;
  records from the future are rejected loudly, never best-effort
  parsed.

Everything here is JSON-safe plain data, picklable both ways, so
records can cross process boundaries and live on disk as JSONL lines.
"""

from __future__ import annotations

import platform
import sys
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.decode import canonical_hash
from repro.errors import ConfigurationError, ProvenanceWarning

__all__ = [
    "STORE_SCHEMA_VERSION",
    "RunRecord",
    "env_fingerprint",
    "result_to_payload",
    "result_from_payload",
    "warn_foreign_envs",
]

#: Version of the RunRecord envelope + result payload schema.
STORE_SCHEMA_VERSION = 1

_REQUIRED_RESULT_KEYS = (
    "algorithm",
    "ring_size",
    "homes",
    "scheduler",
    "total_moves",
    "max_moves",
    "ideal_time",
    "max_memory_bits",
    "messages_sent",
    "final_positions",
    "report",
)


def env_fingerprint() -> Dict[str, str]:
    """Where a run was computed: interpreter, platform, package version.

    Purely informational — record equality semantics and the store key
    never depend on it, but archived numbers keep their provenance.
    """
    from repro import __version__

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "repro": __version__,
    }


def warn_foreign_envs(records: Iterable["RunRecord"], noun: str) -> None:
    """Warn the resuming function's caller when archived ``records``
    that a resume reuses were computed under another environment.

    Warn, don't refuse: mixed-provenance archives are often fine (a
    patch release, a different host), but they must never be *silent*.
    """
    current = env_fingerprint()
    foreign: Dict[Tuple[Tuple[str, str], ...], int] = {}
    for record in records:
        if record.env and record.env != current:
            key = tuple(sorted(record.env.items()))
            foreign[key] = foreign.get(key, 0) + 1
    if foreign:
        details = "; ".join(
            f"{count} from {dict(env)}" for env, count in sorted(foreign.items())
        )
        warnings.warn(
            f"resume reuses {sum(foreign.values())} archived {noun}(s) "
            f"computed under a different environment than the current "
            f"{current} ({details}); pass resume=False to recompute them",
            ProvenanceWarning,
            stacklevel=3,
        )


def result_to_payload(result) -> Dict[str, object]:
    """Flatten one ``RunResult`` into the canonical JSON-safe payload."""
    return {
        "algorithm": result.algorithm,
        "ring_size": result.placement.ring_size,
        "homes": list(result.placement.homes),
        "scheduler": result.scheduler,
        "total_moves": result.total_moves,
        "max_moves": result.max_moves,
        "ideal_time": result.ideal_time,
        "max_memory_bits": result.max_memory_bits,
        "messages_sent": result.messages_sent,
        "final_positions": list(result.final_positions),
        "report": {
            "ok": result.report.ok,
            "ring_size": result.report.ring_size,
            "agent_count": result.report.agent_count,
            "gaps": list(result.report.gaps),
            "failures": list(result.report.failures),
        },
    }


def result_from_payload(data: Dict[str, object]):
    """Rebuild a ``RunResult`` from :func:`result_to_payload` output."""
    from repro.analysis.verification import VerificationReport
    from repro.experiments.runner import RunResult
    from repro.ring.placement import Placement

    try:
        report_data = data["report"]
        report = VerificationReport(
            ok=report_data["ok"],
            ring_size=report_data["ring_size"],
            agent_count=report_data["agent_count"],
            gaps=tuple(report_data["gaps"]),
            failures=tuple(report_data["failures"]),
        )
        return RunResult(
            algorithm=data["algorithm"],
            placement=Placement(
                ring_size=data["ring_size"], homes=tuple(data["homes"])
            ),
            scheduler=data["scheduler"],
            total_moves=data["total_moves"],
            max_moves=data["max_moves"],
            ideal_time=data["ideal_time"],
            max_memory_bits=data["max_memory_bits"],
            messages_sent=data["messages_sent"],
            report=report,
            final_positions=tuple(data["final_positions"]),
        )
    except (KeyError, TypeError) as missing:
        raise ConfigurationError(
            f"malformed result record: missing key {missing}"
        ) from None


def payload_hash(payload: Dict[str, object]) -> str:
    """Content hash of a *specless* result payload.

    Records archived without an :class:`~repro.spec.ExperimentSpec`
    still need a stable store key; hashing the canonical payload (with
    a domain prefix so it can never collide with a spec hash by
    construction) provides one.
    """
    return canonical_hash(payload, prefix=b"result|")


@dataclass(frozen=True)
class RunRecord:
    """One archived experiment run (the store's unit of persistence)."""

    content_hash: str
    result: Dict[str, object]
    spec: Optional[Dict[str, object]] = None
    env: Dict[str, str] = field(default_factory=env_fingerprint)
    schema_version: int = STORE_SCHEMA_VERSION

    def __post_init__(self) -> None:
        missing = [
            key for key in _REQUIRED_RESULT_KEYS if key not in self.result
        ]
        if missing:
            raise ConfigurationError(
                f"run record result payload is missing keys {missing}"
            )

    # -- conversions ---------------------------------------------------------

    def to_run_result(self):
        """The :class:`~repro.experiments.runner.RunResult` this record holds."""
        return result_from_payload(self.result)

    def experiment_spec(self):
        """The producing :class:`~repro.spec.ExperimentSpec` (or ``None``)."""
        if self.spec is None:
            return None
        from repro.spec import ExperimentSpec

        return ExperimentSpec.from_dict(self.spec)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict (one store line)."""
        return {
            "schema_version": self.schema_version,
            "content_hash": self.content_hash,
            "spec": self.spec,
            "result": self.result,
            "env": self.env,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunRecord":
        """Inverse of :meth:`to_dict`; future schema versions are rejected."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"run record must be a dict, got {type(data).__name__}"
            )
        version = data.get("schema_version")
        if not isinstance(version, int):
            raise ConfigurationError(
                f"run record has no integer schema_version (got {version!r})"
            )
        if version > STORE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"run record uses store schema version {version}, but this "
                f"build reads at most {STORE_SCHEMA_VERSION}; upgrade repro "
                f"to read it"
            )
        if version < 1:
            raise ConfigurationError(
                f"run record has impossible schema version {version} "
                f"(the first store schema is 1)"
            )
        try:
            return cls(
                content_hash=data["content_hash"],
                result=data["result"],
                spec=data.get("spec"),
                env=data.get("env", {}),
                schema_version=version,
            )
        except KeyError as missing:
            raise ConfigurationError(
                f"run record is missing required key {missing}"
            ) from None
