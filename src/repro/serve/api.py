"""The experiment service's versioned JSON API, free of any socket.

:class:`ServeApi` maps ``(method, path, query, body)`` to
``(status, payload)`` — nothing else.  The HTTP layer
(:mod:`repro.serve.server`) is a thin shell around :meth:`ServeApi.handle`,
which keeps every route unit-testable without binding a port and keeps
exactly one place that decides status codes and error shapes.

Routes (all JSON; errors are ``{"error": {"code", "message"}}``):

=======  ==========================  =========================================
Method   Path                        Meaning
=======  ==========================  =========================================
GET      /v1/health                  liveness + store/job counters
GET      /v1/registry                algorithm + scheduler registry dump
GET      /v1/store/digest            ``RunStore.digest()`` (the identity gate)
GET      /v1/runs                    query archived runs (filters, pagination)
GET      /v1/runs/{hash}             one archived record (prefix allowed)
GET      /v1/failures                archived failure hashes
GET      /v1/failures/{hash}         one failure artifact (prefix allowed)
GET      /v1/quarantine              quarantined-unit hashes
GET      /v1/quarantine/{hash}       one quarantine artifact (prefix allowed)
POST     /v1/jobs                    submit a spec → 202 + job resource
GET      /v1/jobs                    all jobs, oldest first
GET      /v1/jobs/{id}               one job with live progress
=======  ==========================  =========================================

Reads are served from a :meth:`~repro.store.RunStore.snapshot` taken
after a :meth:`~repro.store.RunStore.refresh`, so a query paginating
while sweep jobs write sees one consistent frontier per request —
never a torn view.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

from repro import __version__
from repro.errors import ReproError
from repro.serve.jobs import JobManager
from repro.store import RunStore

__all__ = ["ServeApi", "error_payload"]

#: Filters /v1/runs accepts, mapped to RunStore.query keywords.
_RUN_FILTERS = {
    "algorithm": ("algorithm", str),
    "scheduler": ("scheduler", str),
    "n": ("ring_size", int),
    "k": ("agent_count", int),
    "uniform": ("uniform", None),  # parsed as bool below
    "hash": ("hash_prefix", str),
}

#: Cap on one /v1/runs page: full records are heavy, and a client that
#: wants everything pages for it.
_MAX_PAGE = 500
_DEFAULT_PAGE = 100


def error_payload(code: str, message: str, **extra) -> Dict[str, object]:
    payload: Dict[str, object] = {"error": {"code": code, "message": message}}
    payload["error"].update(extra)
    return payload


class _ApiError(Exception):
    def __init__(self, status: int, code: str, message: str, **extra) -> None:
        super().__init__(message)
        self.status = status
        self.payload = error_payload(code, message, **extra)


def _parse_bool(raw: str, name: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise _ApiError(
        400, "bad_request", f"query parameter {name!r} must be a boolean, "
        f"got {raw!r}"
    )


def _parse_int(raw: str, name: str, minimum: Optional[int] = None) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise _ApiError(
            400, "bad_request",
            f"query parameter {name!r} must be an integer, got {raw!r}",
        ) from None
    if minimum is not None and value < minimum:
        raise _ApiError(
            400, "bad_request",
            f"query parameter {name!r} must be >= {minimum}, got {value}",
        )
    return value


class ServeApi:
    """Route dispatch for the experiment service (no sockets here)."""

    def __init__(self, store: RunStore, jobs: JobManager) -> None:
        self.store = store
        self.jobs = jobs

    # -- entry point ---------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        query: Optional[Dict[str, str]] = None,
        body: Optional[bytes] = None,
    ) -> Tuple[int, Dict[str, object]]:
        """Dispatch one request; always returns ``(status, payload)``."""
        query = query or {}
        try:
            return self._route(method.upper(), path.rstrip("/") or "/",
                               query, body)
        except _ApiError as error:
            return error.status, error.payload
        except ReproError as error:
            return 400, error_payload("bad_request", str(error))
        except Exception as error:  # never leak a traceback as a 500 crash
            return 500, error_payload(
                "internal", f"{type(error).__name__}: {error}"
            )

    def _route(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        body: Optional[bytes],
    ) -> Tuple[int, Dict[str, object]]:
        parts = [part for part in path.split("/") if part]
        if not parts or parts[0] != "v1":
            raise _ApiError(
                404, "not_found",
                f"unknown path {path!r} (the API lives under /v1/)",
            )
        tail = parts[1:]
        if tail == ["health"]:
            return self._only(method, "GET", self._health)
        if tail == ["registry"]:
            return self._only(method, "GET", self._registry)
        if tail == ["store", "digest"]:
            return self._only(method, "GET", self._digest)
        if tail == ["runs"]:
            return self._only(method, "GET", lambda: self._runs(query))
        if len(tail) == 2 and tail[0] == "runs":
            return self._only(method, "GET", lambda: self._run(tail[1]))
        if tail in (["failures"], ["quarantine"]):
            return self._only(
                method, "GET", lambda: self._artifacts(tail[0])
            )
        if len(tail) == 2 and tail[0] in ("failures", "quarantine"):
            return self._only(
                method, "GET", lambda: self._artifact(tail[0], tail[1])
            )
        if tail == ["jobs"]:
            if method == "POST":
                return self._submit(body)
            return self._only(method, "GET", self._jobs, allowed="GET, POST")
        if len(tail) == 2 and tail[0] == "jobs":
            return self._only(method, "GET", lambda: self._job(tail[1]))
        raise _ApiError(404, "not_found", f"unknown path {path!r}")

    @staticmethod
    def _only(method, expected, handler, allowed=None):
        if method != expected:
            raise _ApiError(
                405, "method_not_allowed",
                f"method {method} not allowed here (allowed: "
                f"{allowed or expected})",
            )
        return handler()

    # -- read endpoints ------------------------------------------------------

    def _view(self):
        """A consistent read view: refresh, then pin the frontier."""
        self.store.refresh()
        return self.store.snapshot()

    def _health(self) -> Tuple[int, Dict[str, object]]:
        jobs = self.jobs.list()
        states: Dict[str, int] = {}
        for job in jobs:
            states[job.state] = states.get(job.state, 0) + 1
        return 200, {
            "status": "ok",
            "version": __version__,
            "store": str(self.store.root),
            "records": len(self._view()),
            "jobs": states,
        }

    def _registry(self) -> Tuple[int, Dict[str, object]]:
        from repro.registry import registry_dump

        return 200, registry_dump()

    def _digest(self) -> Tuple[int, Dict[str, object]]:
        view = self._view()
        return 200, {"digest": view.digest(), "records": len(view)}

    def _runs(self, query: Dict[str, str]) -> Tuple[int, Dict[str, object]]:
        filters = {}
        for name, (keyword, cast) in _RUN_FILTERS.items():
            if name not in query:
                continue
            raw = query[name]
            if cast is None:
                filters[keyword] = _parse_bool(raw, name)
            elif cast is int:
                filters[keyword] = _parse_int(raw, name)
            else:
                filters[keyword] = raw
        unknown = set(query) - set(_RUN_FILTERS) - {"limit", "offset"}
        if unknown:
            raise _ApiError(
                400, "bad_request",
                f"unknown query parameter(s): {', '.join(sorted(unknown))}",
            )
        limit = min(
            _parse_int(query.get("limit", str(_DEFAULT_PAGE)), "limit",
                       minimum=1),
            _MAX_PAGE,
        )
        offset = _parse_int(query.get("offset", "0"), "offset", minimum=0)
        view = self._view()
        total = view.count(**filters)
        records = list(view.query(limit=limit, offset=offset, **filters))
        return 200, {
            "total": total,
            "limit": limit,
            "offset": offset,
            "runs": [record.to_dict() for record in records],
        }

    def _resolve(self, view, prefix: str) -> str:
        matches = view.resolve_prefix(prefix)
        if not matches:
            raise _ApiError(
                404, "not_found", f"no archived run matches {prefix!r}"
            )
        if len(matches) > 1:
            raise _ApiError(
                400, "ambiguous_hash",
                f"hash prefix {prefix!r} matches {len(matches)} records",
                matches=matches[:16],
            )
        return matches[0]

    def _run(self, prefix: str) -> Tuple[int, Dict[str, object]]:
        view = self._view()
        return 200, view.get(self._resolve(view, prefix)).to_dict()

    def _archive(self, kind: str):
        return (
            self.store.failures if kind == "failures" else
            self.store.quarantine
        )

    def _artifacts(self, kind: str) -> Tuple[int, Dict[str, object]]:
        archive = self._archive(kind)
        hashes = archive.hashes()
        return 200, {"total": len(hashes), kind: hashes}

    def _artifact(self, kind: str, prefix: str) -> Tuple[int, Dict[str, object]]:
        archive = self._archive(kind)
        matches = archive.resolve(prefix)
        if not matches:
            raise _ApiError(
                404, "not_found",
                f"no archived {kind} artifact matches {prefix!r}",
            )
        if len(matches) > 1:
            raise _ApiError(
                400, "ambiguous_hash",
                f"hash prefix {prefix!r} matches {len(matches)} artifacts",
                matches=matches[:16],
            )
        return 200, archive.get(matches[0])

    # -- job endpoints -------------------------------------------------------

    def _submit(self, body: Optional[bytes]) -> Tuple[int, Dict[str, object]]:
        if not body:
            raise _ApiError(
                400, "bad_request", "POST /v1/jobs requires a JSON body"
            )
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as error:
            raise _ApiError(
                400, "bad_request", f"request body is not valid JSON: {error}"
            ) from None
        if not isinstance(payload, dict):
            raise _ApiError(
                400, "bad_request",
                "request body must be a JSON object with 'kind' and 'spec'",
            )
        kind = payload.get("kind")
        spec_data = payload.get("spec")
        if not isinstance(kind, str) or not isinstance(spec_data, dict):
            raise _ApiError(
                400, "bad_request",
                "request body must carry a string 'kind' and an object "
                "'spec'",
            )
        options = payload.get("options", {})
        if not isinstance(options, dict):
            raise _ApiError(
                400, "bad_request", "'options' must be a JSON object"
            )
        from repro.jobs import OptionError, get_kind

        spec_class = get_kind(kind).spec_class()
        try:
            spec = spec_class.from_dict(spec_data)
        except (ReproError, KeyError, TypeError, ValueError) as error:
            # Spec constructors raise ConfigurationError for semantic
            # problems, but a structurally malformed dict can surface
            # as KeyError/TypeError — either way it is the client's
            # payload that is wrong, not the server.
            raise _ApiError(
                400, "bad_request",
                f"invalid {kind} spec: {type(error).__name__}: {error}",
            ) from None
        try:
            job = self.jobs.submit(kind, spec, options)
        except OptionError as error:
            raise _ApiError(
                400, "bad_request", str(error), option=error.option
            ) from None
        return 202, job.to_dict()

    def _jobs(self) -> Tuple[int, Dict[str, object]]:
        jobs = [job.to_dict() for job in self.jobs.list()]
        return 200, {"total": len(jobs), "jobs": jobs}

    def _job(self, job_id: str) -> Tuple[int, Dict[str, object]]:
        job = self.jobs.get(job_id)
        if job is None:
            raise _ApiError(404, "not_found", f"no job {job_id!r}")
        return 200, job.to_dict()
