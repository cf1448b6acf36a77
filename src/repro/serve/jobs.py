"""In-process job manager behind the experiment service.

``POST /v1/jobs`` lands here: a submitted spec becomes a :class:`Job`
on a FIFO queue, and a small pool of daemon worker threads drives the
existing library entry points — :func:`repro.experiments.sweep.execute_sweep`,
:class:`repro.fuzz.ScheduleFuzzer` / :func:`repro.fuzz.fuzz_parallel`,
:func:`repro.campaign.run_campaign`, :func:`repro.store.cached_run` —
against the service's run store.  Everything a job produces lands in
the store exactly as the CLI would have put it there (records keyed by
spec content hash, fuzz failures in ``<store>/failures/``), which is
what makes the service's core contract hold: a sweep submitted over
HTTP digests byte-identically to the same sweep via ``repro psweep``.

Jobs carry live progress counters that poll handlers read without
locking the executor: each worker thread mutates only its own job's
``progress`` dict (dict assignment is atomic under the GIL), so
``GET /v1/jobs/{id}`` never blocks on a running sweep.

Sweeps default to ``processes=1`` — the job already runs on a worker
thread, and forking a multiprocessing pool from a thread is a
portability trap; submitters that want a pool pass
``options.processes`` explicitly.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReproError

__all__ = ["Job", "JobManager"]

#: Job lifecycle states, in order.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"

_KINDS = ("experiment", "sweep", "fuzz", "campaign")


def _spec_hash(kind: str, spec) -> str:
    """A stable identity for the submitted work (spec content hash)."""
    if hasattr(spec, "content_hash"):
        return spec.content_hash()
    # SweepSpec exposes no content_hash of its own; hash its canonical
    # dict form the same way the spec layer does.
    canonical = json.dumps(
        spec.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class Job:
    """One submitted unit of service work and its live accounting."""

    id: str
    kind: str
    spec_hash: str
    spec: object
    options: Dict[str, object]
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    progress: Dict[str, object] = field(default_factory=dict)
    result: Optional[Dict[str, object]] = None
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "kind": self.kind,
            "spec_hash": self.spec_hash,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "progress": dict(self.progress),
            "result": self.result,
            "error": self.error,
        }


class JobManager:
    """A FIFO queue of jobs drained by daemon worker threads.

    One manager per server process; each worker thread opens its own
    :class:`~repro.store.RunStore` handle on the shared store root
    (handles are cheap — the SQLite index is shared on disk), so jobs
    never contend on a store handle with the HTTP read path.
    """

    def __init__(self, store_root: str, *, workers: int = 2) -> None:
        self.store_root = store_root
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        self._seq = 0
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"serve-job-{i}", daemon=True
            )
            for i in range(max(1, workers))
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ----------------------------------------------------------

    def submit(self, kind: str, spec, options: Dict[str, object]) -> Job:
        if kind not in _KINDS:
            raise ReproError(
                f"unknown job kind {kind!r} (expected one of {_KINDS})"
            )
        spec_hash = _spec_hash(kind, spec)
        with self._lock:
            self._seq += 1
            job = Job(
                id=f"job-{self._seq:04d}-{spec_hash[:12]}",
                kind=kind,
                spec_hash=spec_hash,
                spec=spec,
                options=dict(options),
            )
            self._jobs[job.id] = job
            self._order.append(job.id)
        self._queue.put(job)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> List[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the workers after the jobs already running finish."""
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout)

    # -- execution -----------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            job.state = RUNNING
            job.started_at = time.time()
            try:
                job.result = self._execute(job)
                job.state = COMPLETED
            except ReproError as error:
                job.error = str(error)
                job.state = FAILED
            except Exception:
                job.error = traceback.format_exc(limit=8)
                job.state = FAILED
            finally:
                job.finished_at = time.time()

    def _execute(self, job: Job) -> Dict[str, object]:
        handler = {
            "experiment": self._run_experiment,
            "sweep": self._run_sweep,
            "fuzz": self._run_fuzz,
            "campaign": self._run_campaign,
        }[job.kind]
        return handler(job)

    def _open_store(self):
        from repro.store import RunStore

        return RunStore(self.store_root)

    def _run_experiment(self, job: Job) -> Dict[str, object]:
        from repro.store import cached_run

        store = self._open_store()
        result, hit = cached_run(job.spec, store)
        job.progress = {"executed": 0 if hit else 1, "cached": 1 if hit else 0}
        return {
            "content_hash": job.spec.content_hash(),
            "cached": hit,
            "row": result.row(),
        }

    def _run_sweep(self, job: Job) -> Dict[str, object]:
        from repro.experiments.sweep import execute_sweep, expand_cells

        store = self._open_store()
        total = len(expand_cells(job.spec))

        def on_progress(done: int, pending_total: int) -> None:
            job.progress = {
                "done": done,
                "pending": pending_total,
                "total": total,
            }

        outcome = execute_sweep(
            job.spec,
            processes=int(job.options.get("processes", 1)),
            store=store,
            resume=bool(job.options.get("resume", True)),
            progress=on_progress,
            backend=str(job.options.get("backend", "object")),
        )
        job.progress = {
            "done": outcome.executed,
            "total": outcome.total,
            "executed": outcome.executed,
            "cached": outcome.cached,
        }
        return {
            "summary": outcome.describe(),
            "total": outcome.total,
            "executed": outcome.executed,
            "cached": outcome.cached,
        }

    def _run_fuzz(self, job: Job) -> Dict[str, object]:
        from repro.fuzz import ScheduleFuzzer, fuzz_parallel

        jobs = int(job.options.get("jobs", 1))
        keep_going = bool(job.options.get("keep_going", False))
        shrink = bool(job.options.get("shrink", True))
        if jobs > 1:
            outcome = fuzz_parallel(
                job.spec, jobs, keep_going=keep_going, shrink=shrink
            )
        else:

            def on_progress(runs: int, budget: int, coverage: str) -> None:
                job.progress = {
                    "runs": runs,
                    "budget": budget,
                    "coverage": coverage,
                }

            outcome = ScheduleFuzzer(
                job.spec, keep_going=keep_going, shrink=shrink,
                progress=on_progress,
            ).run()
        store = self._open_store()
        archived = []
        for failure in outcome.failures:
            store.failures.put(failure.content_hash, failure.to_dict())
            archived.append(failure.content_hash)
        job.progress = {
            "runs": outcome.runs,
            "budget": job.spec.budget,
            "states": outcome.states,
            "patterns": outcome.patterns,
            "failures": len(outcome.failures),
        }
        return {
            "summary": outcome.describe(),
            "runs": outcome.runs,
            "steps": outcome.steps,
            "states": outcome.states,
            "patterns": outcome.patterns,
            "complete": outcome.complete,
            "failures": archived,
        }

    def _run_campaign(self, job: Job) -> Dict[str, object]:
        from repro.campaign import run_campaign

        lines: List[str] = []

        def on_progress(line: str) -> None:
            lines.append(line)
            job.progress = {"events": len(lines), "last_event": line}

        outcome = run_campaign(
            job.spec,
            self.store_root,
            resume=bool(job.options.get("resume", True)),
            progress=on_progress,
        )
        job.progress = {
            "events": len(lines),
            "completed": outcome.completed,
            "cached": outcome.cached,
            "total": outcome.total,
            "quarantined": len(outcome.quarantined),
        }
        return {
            "summary": outcome.describe(),
            "total": outcome.total,
            "completed": outcome.completed,
            "cached": outcome.cached,
            "quarantined": len(outcome.quarantined),
            "failures": len(outcome.failures),
            "exit_code": outcome.exit_code,
        }
